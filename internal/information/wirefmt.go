package information

import "mocca/internal/vclock"

// WireObject is the JSON form of an Object. No message carries it — every
// plane carries rows in the one row codec (AppendObject) — and it is kept,
// with ToWire, for one caller: the benchmark's ledger, which prices JSON
// rows until it prices real bodies.
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
