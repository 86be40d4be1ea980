package information

import (
	"time"

	"mocca/internal/vclock"
)

// WireObject is the JSON form of an Object on the network — used by the
// trader-mediated remote read and forward protocol (internal/placement),
// whose messages are small JSON bodies. The replication planes carry rows
// in the binary row codec instead (AppendObject). The replica-local
// Version is not carried: it is recomputed as VV.Sum(), so converged
// replicas agree on it by construction.
type WireObject struct {
	ID      string            `json:"id"`
	Schema  string            `json:"schema"`
	Owner   string            `json:"owner"`
	Site    string            `json:"site"`
	Fields  map[string]string `json:"fields,omitempty"`
	VV      vclock.Version    `json:"vv"`
	Created int64             `json:"created"`
	Updated int64             `json:"updated"`
}

// ToWire converts an object to its wire form.
func ToWire(o *Object) WireObject {
	return WireObject{
		ID:      o.ID,
		Schema:  o.Schema,
		Owner:   o.Owner,
		Site:    o.Site,
		Fields:  o.Fields,
		VV:      o.VV,
		Created: o.Created.UnixNano(),
		Updated: o.Updated.UnixNano(),
	}
}

// FromWire converts a wire object back to an Object.
func FromWire(w WireObject) *Object {
	return &Object{
		ID:      w.ID,
		Schema:  w.Schema,
		Owner:   w.Owner,
		Site:    w.Site,
		Fields:  w.Fields,
		Version: w.VV.Sum(),
		VV:      w.VV,
		Created: time.Unix(0, w.Created).UTC(),
		Updated: time.Unix(0, w.Updated).UTC(),
	}
}
