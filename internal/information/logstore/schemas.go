package logstore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"mocca/internal/information"
	"mocca/internal/wire"
)

// This file is the store's schema file: the definitions of the schemas its
// compact rows name by content id (information.AppendObject), so that the
// store opens, and its rows decode, in a process that has not registered
// those schemas — a deployment boots its sites, and so opens their stores,
// before its applications register theirs.
//
//	schemas.log: framed records (wire.AppendRecord), one definition each:
//	             the schema's name, then a uvarint count and the field
//	             names in declared order, each string uvarint-prefixed
//
// A definition is appended, and synced under WithFsync, before the first
// WAL record or segment that names its id; the file is created with the
// first and never rewritten. Open reads it before anything else and
// teaches the process every definition in it (information.LearnSchema),
// so only a row naming an id that neither the process nor the file
// defines refuses the store, with information.ErrUnknownSchema.

const schemasName = "schemas.log"

// readSchemas learns every definition in the schema file and notes its id
// as defined. It changes no file: it returns the length of the file's
// intact prefix and of the file, for recover to truncate a torn tail once
// nothing can refuse the store any more. An intact record that is no
// definition refuses the store with ErrCorrupt; one that conflicts with a
// schema this process holds, with information.ErrSchemaConflict.
func (s *Store) readSchemas() (good, size int64, err error) {
	data, err := os.ReadFile(filepath.Join(s.dir, schemasName))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("logstore: %w", err)
	}
	for rest := data; len(rest) > 0; {
		payload, next, err := wire.NextRecord(rest)
		if err != nil {
			break
		}
		name, fields, err := decodeSchemaDef(payload)
		if err != nil {
			return 0, 0, fmt.Errorf("logstore: %s: %w: %v", schemasName, ErrCorrupt, err)
		}
		id, err := information.LearnSchema(name, fields)
		if err != nil {
			return 0, 0, fmt.Errorf("logstore: %s: %w", schemasName, err)
		}
		s.schemaIDs[id] = true
		rest = next
		good = int64(len(data) - len(rest))
	}
	return good, int64(len(data)), nil
}

// decodeSchemaDef decodes one schema-file record.
func decodeSchemaDef(p []byte) (name string, fields []string, err error) {
	if name, p, err = wire.ConsumeString(p); err != nil {
		return "", nil, err
	}
	n, p, err := wire.ConsumeUvarint(p)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(p)) { // a field name's length, at least
		return "", nil, wire.ErrTruncated
	}
	fields = make([]string, n)
	for i := range fields {
		if fields[i], p, err = wire.ConsumeString(p); err != nil {
			return "", nil, err
		}
	}
	if len(p) > 0 {
		return "", nil, fmt.Errorf("%d bytes after the definition", len(p))
	}
	return name, fields, nil
}

// defineLocked makes the schema file hold the definition of each id in
// ids, appending those it lacks. A record that was not written and synced
// whole is truncated back off the file, as appendLocked does for the WAL,
// and the store goes read-only if that fails too.
func (s *Store) defineLocked(ids ...uint32) error {
	for _, id := range ids {
		if s.schemaIDs[id] {
			continue
		}
		name, fields, ok := information.SchemaDefinition(id)
		if !ok {
			return fmt.Errorf("logstore: %w: id %08x", information.ErrUnknownSchema, id)
		}
		if s.schemaFile == nil {
			f, err := os.OpenFile(filepath.Join(s.dir, schemasName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("logstore: %w", err)
			}
			s.schemaFile = f
		}
		p := wire.AppendString(nil, name)
		p = wire.AppendUvarint(p, uint64(len(fields)))
		for _, f := range fields {
			p = wire.AppendString(p, f)
		}
		frame, err := wire.AppendRecord(nil, p)
		if err != nil {
			return fmt.Errorf("logstore: define schema %q: %w", name, err)
		}
		_, err = s.schemaFile.Write(frame)
		if err == nil && s.fsync {
			err = s.schemaFile.Sync()
		}
		if err != nil {
			if terr := os.Truncate(filepath.Join(s.dir, schemasName), s.schemasSize); terr != nil {
				s.broken = true
				return fmt.Errorf("logstore: define schema failed (%v), rollback failed (%v): %w", err, terr, ErrReadOnly)
			}
			return fmt.Errorf("logstore: define schema %q: %w", name, err)
		}
		s.schemasSize += int64(len(frame))
		s.schemaIDs[id] = true
	}
	return nil
}

// defineRowLocked makes the schema file define the schema a row encoded
// by information.AppendObject names, if it names one by id.
func (s *Store) defineRowLocked(row []byte) error {
	id, compact, err := information.ObjectSchemaID(row)
	if err != nil || !compact {
		return err
	}
	return s.defineLocked(id)
}
