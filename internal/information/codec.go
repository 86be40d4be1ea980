package information

import (
	"fmt"
	"sort"
	"time"

	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// AppendObject appends the canonical binary encoding of one object row:
// length-prefixed strings, big-endian integers, the version vector in
// vclock's canonical sorted form, and fields in sorted key order. Equal
// rows encode to equal bytes, which is what lets recovery be verified
// byte-for-byte. It is the one row codec of the repository: the durable
// log (logstore's WAL and segments) and the replication planes
// (replica.* and gossip.fetch bodies) carry rows in exactly this form.
func AppendObject(dst []byte, o *Object) []byte {
	dst = wire.AppendString(dst, o.ID)
	dst = wire.AppendString(dst, o.Schema)
	dst = wire.AppendString(dst, o.Owner)
	dst = wire.AppendString(dst, o.Site)
	dst = wire.AppendUint64(dst, o.Version)
	dst = o.VV.AppendBinary(dst)
	dst = wire.AppendUint64(dst, uint64(o.Created.UnixNano()))
	dst = wire.AppendUint64(dst, uint64(o.Updated.UnixNano()))
	dst = wire.AppendUint64(dst, uint64(len(o.Fields)))
	keys := make([]string, 0, len(o.Fields))
	for k := range o.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		dst = wire.AppendString(dst, k)
		dst = wire.AppendString(dst, o.Fields[k])
	}
	return dst
}

// DecodeObject decodes one row produced by AppendObject, returning it and
// the remaining bytes. The input may come off the network: every count is
// checked against the bytes that remain before anything is allocated.
func DecodeObject(data []byte) (*Object, []byte, error) {
	o := &Object{}
	var err error
	if o.ID, data, err = wire.ConsumeString(data); err != nil {
		return nil, data, err
	}
	if o.Schema, data, err = wire.ConsumeString(data); err != nil {
		return nil, data, err
	}
	if o.Owner, data, err = wire.ConsumeString(data); err != nil {
		return nil, data, err
	}
	if o.Site, data, err = wire.ConsumeString(data); err != nil {
		return nil, data, err
	}
	if o.Version, data, err = wire.ConsumeUint64(data); err != nil {
		return nil, data, err
	}
	if o.VV, data, err = vclock.DecodeVersion(data); err != nil {
		return nil, data, err
	}
	var created, updated, nfields uint64
	if created, data, err = wire.ConsumeUint64(data); err != nil {
		return nil, data, err
	}
	if updated, data, err = wire.ConsumeUint64(data); err != nil {
		return nil, data, err
	}
	o.Created = time.Unix(0, int64(created)).UTC()
	o.Updated = time.Unix(0, int64(updated)).UTC()
	if nfields, data, err = wire.ConsumeUint64(data); err != nil {
		return nil, data, err
	}
	// A field is two length prefixes at least.
	if nfields > uint64(len(data))/8 {
		return nil, data, fmt.Errorf("%w: %d fields in %d bytes", wire.ErrTruncated, nfields, len(data))
	}
	if nfields > 0 {
		o.Fields = make(map[string]string, nfields)
		for i := uint64(0); i < nfields; i++ {
			var k, v string
			if k, data, err = wire.ConsumeString(data); err != nil {
				return nil, data, err
			}
			if v, data, err = wire.ConsumeString(data); err != nil {
				return nil, data, err
			}
			o.Fields[k] = v
		}
	}
	return o, data, nil
}
