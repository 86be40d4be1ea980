package information

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
)

// A shape is what the row codec knows of a registered or learned schema:
// its content id, its lower-cased name, its field names in declared order
// and the name → position index that AppendObject reads. A shape never
// changes once published, so the codec hands its strings to decoded rows
// as they are.
type shape struct {
	id     uint32
	name   string
	fields []string
	pos    map[string]int
	// compact: rows of this shape may travel in the compact form — its
	// field names are distinct and a uint64 bitmap can say which are set.
	compact bool
}

// shapeTable is the process-wide table of shapes: the registered ones by
// name, and the compact ones, registered or learned from a store, by id.
// Like gob.Register's, it is append-only: a name keeps the first shape
// registered under it, so a row encodes to the same bytes for the life of
// the process. A published table is never written; registering or learning
// publishes a copy, and readers load it without a lock.
type shapeTable struct {
	byName map[string]*shape
	byID   map[uint32]*shape
}

var (
	shapes   atomic.Pointer[shapeTable]
	shapesMu sync.Mutex // serialises registrations and learning
)

func init() {
	shapes.Store(&shapeTable{byName: map[string]*shape{}, byID: map[uint32]*shape{}})
}

// schemaID is a schema's content id: FNV-1a-32 over its lower-cased name
// and its field names in declared order, each preceded by its length as a
// uvarint. Every process that registers the same definition derives the
// same id, so the id needs no table exchanged beside it.
func schemaID(name string, fields []string) uint32 {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	add := func(s string) {
		for n := uint64(len(s)); ; n >>= 7 {
			b := byte(n & 0x7f)
			if n >= 0x80 {
				b |= 0x80
			}
			h = (h ^ uint32(b)) * prime32
			if n < 0x80 {
				break
			}
		}
		for i := 0; i < len(s); i++ {
			h = (h ^ uint32(s[i])) * prime32
		}
	}
	add(name)
	for _, f := range fields {
		add(f)
	}
	return h
}

// registerShape enters the schema under its lower-cased name. The same
// field list again is a no-op, and so is a definition a store taught the
// table (see LearnSchema), which from now on also names the schema's rows;
// a different field list under a taken name, or a definition whose id
// another schema has, is refused with ErrSchemaConflict.
func registerShape(name string, fields []Field) error {
	names := make([]string, len(fields))
	for i, f := range fields {
		names[i] = f.Name
	}
	shapesMu.Lock()
	defer shapesMu.Unlock()
	t := shapes.Load()
	if sh := t.byName[name]; sh != nil {
		if !slices.Equal(sh.fields, names) {
			return fmt.Errorf("%w: %q has fields %q, not %q", ErrSchemaConflict, name, sh.fields, names)
		}
		return nil
	}
	sh, err := t.shapeFor(name, names)
	if err != nil {
		return err
	}
	next := t.clone()
	next.byName[name] = sh
	if sh.compact {
		next.byID[sh.id] = sh
	}
	shapes.Store(next)
	return nil
}

// LearnSchema enters a definition a store read back from its own files
// (see SchemaDefinition), so that the rows naming its content id decode in
// this process before, or without, an application registering the schema,
// and returns that id. A learned definition does not make the name's rows
// travel in the compact form, and does not hold the name: only Register
// does either. The same definition again is a no-op; one whose id another
// definition has, or that no compact row could name, is refused with
// ErrSchemaConflict.
func LearnSchema(name string, fields []string) (uint32, error) {
	shapesMu.Lock()
	defer shapesMu.Unlock()
	t := shapes.Load()
	sh, err := t.shapeFor(name, fields)
	if err != nil {
		return 0, err
	}
	if t.byID[sh.id] == sh {
		return sh.id, nil
	}
	if !sh.compact {
		return 0, fmt.Errorf("%w: %q with fields %q names no compact row", ErrSchemaConflict, name, fields)
	}
	next := t.clone()
	next.byID[sh.id] = sh
	shapes.Store(next)
	return sh.id, nil
}

// SchemaDefinition returns the name and field names, in declared order, of
// the schema whose content id a compact row names, if this process has
// registered or learned it. A store keeps the definitions of the ids its
// rows name beside them, so it opens in a process that has registered none.
func SchemaDefinition(id uint32) (name string, fields []string, ok bool) {
	sh := shapes.Load().byID[id]
	if sh == nil {
		return "", nil, false
	}
	return sh.name, slices.Clone(sh.fields), true
}

// shapeFor returns the table's shape for the definition under its content
// id if it has one, or a new unpublished shape; a definition whose id the
// table holds for another is refused with ErrSchemaConflict.
func (t *shapeTable) shapeFor(name string, fields []string) (*shape, error) {
	id := schemaID(name, fields)
	if sh := t.byID[id]; sh != nil {
		if sh.name != name || !slices.Equal(sh.fields, fields) {
			return nil, fmt.Errorf("%w: %q and %q share the id %08x", ErrSchemaConflict, sh.name, name, id)
		}
		return sh, nil
	}
	sh := &shape{id: id, name: name, fields: slices.Clone(fields), pos: make(map[string]int, len(fields))}
	for i, f := range fields {
		if _, dup := sh.pos[f]; !dup {
			sh.pos[f] = i
		}
	}
	sh.compact = len(fields) <= 64 && len(sh.pos) == len(fields)
	return sh, nil
}

// clone returns a copy of the table to publish in its place.
func (t *shapeTable) clone() *shapeTable {
	return &shapeTable{byName: maps.Clone(t.byName), byID: maps.Clone(t.byID)}
}

// compactShape returns the shape a row travels in and the bitmap of the
// fields it sets, or nil when it spells its schema: its Schema must be
// exactly a registered name, and each of its keys one of that schema's
// fields.
func compactShape(o *Object) (*shape, uint64) {
	sh := shapes.Load().byName[o.Schema]
	if sh == nil || !sh.compact {
		return nil, 0
	}
	var set uint64
	for k := range o.Fields {
		i, ok := sh.pos[k]
		if !ok {
			return nil, 0
		}
		set |= 1 << i
	}
	return sh, set
}

// CheckSchemaIDs reports whether this process has registered or learned
// every schema whose content id a compact row names: nil if it has,
// otherwise an error wrapping ErrUnknownSchema for the first it has not. A store
// checks the ids its files name before it admits them.
func CheckSchemaIDs(ids []uint32) error {
	t := shapes.Load()
	for _, id := range ids {
		if t.byID[id] == nil {
			return fmt.Errorf("%w: id %08x", ErrUnknownSchema, id)
		}
	}
	return nil
}
