// Package information implements the paper's Information Model: "The Mocca
// information model aims to allow information used within different CSCW
// systems to be represented externally and to be shared between systems.
// The model is expressed in terms of information objects, the relationships
// between these objects (e.g. composition, dependencies) and the access to
// these objects."
//
// Relationships live in the objects: a row that names another stores its
// id in a field, which the replication digest sees and anti-entropy
// carries. The store keeps rows and nothing beside them.
//
// The load-bearing mechanism is the schema/converter registry: each
// application registers its native schema plus a conversion to a shared
// representation, and the Space finds multi-hop conversion paths between
// any two schemas. This is what turns figure 2 (N² pairwise adapters) into
// figure 3 (N registrations against the environment).
//
// In the ODP viewpoint map (see ARCHITECTURE.md) this package is the
// information viewpoint: the Space is the engine (schemas, access,
// events, replica merge policy) and the Backend interface is the seam to
// the engineering realisation of storage — information.Store keeps rows
// in memory, information/logstore keeps them in a write-ahead log with
// snapshots so a site's replica survives a crash. Objects carry per-site
// version vectors (vclock.Version); internal/replica keeps replicas of
// one logical space convergent by anti-entropy.
package information

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// FieldType constrains a schema field.
type FieldType string

// Field types.
const (
	FieldText FieldType = "text"
	FieldInt  FieldType = "int"
	FieldRef  FieldType = "ref" // reference to another information object
)

// Field describes one schema field.
type Field struct {
	Name     string
	Type     FieldType
	Required bool
}

// Schema is a named external representation of information.
type Schema struct {
	Name   string
	Fields []Field
}

// Validate checks fields against the schema.
func (s Schema) Validate(fields map[string]string) error {
	for _, f := range s.Fields {
		v, ok := fields[f.Name]
		if !ok || v == "" {
			if f.Required {
				return fmt.Errorf("%w: missing required field %q", ErrSchemaViolation, f.Name)
			}
			continue
		}
		if f.Type == FieldInt {
			for _, c := range v {
				if c < '0' && c != '-' || c > '9' && c != '-' {
					return fmt.Errorf("%w: field %q is not an int: %q", ErrSchemaViolation, f.Name, v)
				}
			}
		}
	}
	for name := range fields {
		if !slices.ContainsFunc(s.Fields, func(f Field) bool { return f.Name == name }) {
			return fmt.Errorf("%w: unknown field %q", ErrSchemaViolation, name)
		}
	}
	return nil
}

// Converter translates fields from one schema to another.
type Converter struct {
	From string
	To   string
	Fn   func(map[string]string) (map[string]string, error)
}

// Errors of the schema layer.
var (
	ErrSchemaViolation = errors.New("information: schema violation")
	ErrUnknownSchema   = errors.New("information: unknown schema")
	ErrSchemaExists    = errors.New("information: schema already registered")
	// ErrSchemaConflict refuses a schema whose name this process has
	// registered with other fields, or whose content id another schema
	// has: the row codec names a schema by that id (see AppendObject).
	ErrSchemaConflict = errors.New("information: schema conflicts with a registered one")
	ErrNoConversion   = errors.New("information: no conversion path")
)

// SchemaRegistry holds schemas and converters, and finds conversion paths.
type SchemaRegistry struct {
	mu         sync.RWMutex
	schemas    map[string]Schema
	converters map[string][]Converter // from -> converters
	stats      RegistryStats
}

// RegistryStats counts registry activity.
type RegistryStats struct {
	Conversions  int64
	PathSearches int64
}

// NewSchemaRegistry creates an empty registry.
func NewSchemaRegistry() *SchemaRegistry {
	return &SchemaRegistry{
		schemas:    make(map[string]Schema),
		converters: make(map[string][]Converter),
	}
}

// Register adds a schema, and enters it in the process-wide table the row
// codec reads (see AppendObject): a name there has one field list, so
// registering it with another, in this registry or any other, fails with
// ErrSchemaConflict.
func (r *SchemaRegistry) Register(s Schema) error {
	name := strings.ToLower(s.Name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.schemas[name]; ok {
		return fmt.Errorf("%w: %q", ErrSchemaExists, s.Name)
	}
	if err := registerShape(name, s.Fields); err != nil {
		return err
	}
	s.Name = name
	r.schemas[name] = s
	return nil
}

// Schema returns a registered schema.
func (r *SchemaRegistry) Schema(name string) (Schema, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.schemas[strings.ToLower(name)]
	if !ok {
		return Schema{}, fmt.Errorf("%w: %q", ErrUnknownSchema, name)
	}
	return s, nil
}

// Schemas lists registered schema names, sorted.
func (r *SchemaRegistry) Schemas() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.schemas))
	for name := range r.schemas {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// AddConverter registers a conversion; both schemas must exist.
func (r *SchemaRegistry) AddConverter(c Converter) error {
	from, to := strings.ToLower(c.From), strings.ToLower(c.To)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.schemas[from]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSchema, c.From)
	}
	if _, ok := r.schemas[to]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSchema, c.To)
	}
	c.From, c.To = from, to
	r.converters[from] = append(r.converters[from], c)
	return nil
}

// ConverterCount returns the number of registered converters (for the
// figure-2/figure-3 adapter-count experiment).
func (r *SchemaRegistry) ConverterCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, cs := range r.converters {
		n += len(cs)
	}
	return n
}

// Stats returns a snapshot of the counters.
func (r *SchemaRegistry) Stats() RegistryStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.stats
}

// FindPath returns the shortest converter chain from one schema to another
// (BFS). A same-schema request yields an empty path.
func (r *SchemaRegistry) FindPath(from, to string) ([]Converter, error) {
	from, to = strings.ToLower(from), strings.ToLower(to)
	r.mu.Lock()
	r.stats.PathSearches++
	r.mu.Unlock()

	r.mu.RLock()
	defer r.mu.RUnlock()
	if _, ok := r.schemas[from]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSchema, from)
	}
	if _, ok := r.schemas[to]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSchema, to)
	}
	if from == to {
		return nil, nil
	}
	type node struct {
		schema string
		path   []Converter
	}
	seen := map[string]bool{from: true}
	queue := []node{{schema: from}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, c := range r.converters[cur.schema] {
			if seen[c.To] {
				continue
			}
			path := append(append([]Converter(nil), cur.path...), c)
			if c.To == to {
				return path, nil
			}
			seen[c.To] = true
			queue = append(queue, node{schema: c.To, path: path})
		}
	}
	return nil, fmt.Errorf("%w: %s -> %s", ErrNoConversion, from, to)
}

// Convert translates fields along the shortest path between schemas,
// validating the result against the target schema.
func (r *SchemaRegistry) Convert(fields map[string]string, from, to string) (map[string]string, error) {
	path, err := r.FindPath(from, to)
	if err != nil {
		return nil, err
	}
	cur := cloneFields(fields)
	for _, c := range path {
		cur, err = c.Fn(cur)
		if err != nil {
			return nil, fmt.Errorf("information: convert %s->%s: %w", c.From, c.To, err)
		}
		r.mu.Lock()
		r.stats.Conversions++
		r.mu.Unlock()
	}
	target, err := r.Schema(to)
	if err != nil {
		return nil, err
	}
	if err := target.Validate(cur); err != nil {
		return nil, fmt.Errorf("information: conversion output invalid: %w", err)
	}
	return cur, nil
}

func cloneFields(fields map[string]string) map[string]string {
	out := make(map[string]string, len(fields))
	for k, v := range fields {
		out[k] = v
	}
	return out
}
