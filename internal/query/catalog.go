// Package query implements a miniature Hive/Pig-style dataflow frontend
// over the MapReduce runtime — the workload that motivates the paper:
// "higher level query languages, such as Hive and Pig, would handle a
// complex query by breaking it into smaller ad-hoc ones." A logical plan
// (scan → filter/project → group-by / join / order-by) compiles into a DAG
// of short MapReduce stages, each submitted through the MRapid framework,
// with filters and projections fused into their consumer's map. Stages
// whose dependencies are met run at once, so independent branches overlap.
// Intermediate tables go to the producing node's IntermediateStore
// (JobSpec.IntermediateOutput), not HDFS; only base tables and a query's
// result table live in HDFS, where the Catalog names them.
package query

import (
	"bytes"
	"fmt"
	"slices"

	"mrapid/internal/hdfs"
	"mrapid/internal/topology"
)

// colSep separates columns inside an encoded row. Rows travel through the
// MapReduce runtime as pair keys/values, whose own framing uses tabs and
// newlines, so columns use the ASCII unit separator.
const colSep = "\x1f"

// Schema names a table's columns, in order.
type Schema []string

// Index returns a column's position, or an error naming the column.
func (s Schema) Index(col string) (int, error) {
	for i, c := range s {
		if c == col {
			return i, nil
		}
	}
	return 0, fmt.Errorf("query: unknown column %q (have %v)", col, []string(s))
}

// Row is one record: column values as strings, parallel to the schema.
type Row []string

// Table is a named relation stored as one or more HDFS files of
// newline-separated encoded rows.
type Table struct {
	Name   string
	Files  []string
	Schema Schema
}

// Catalog registers tables over one DFS.
type Catalog struct {
	dfs     *hdfs.DFS
	cluster *topology.Cluster
	tables  map[string]*Table
}

// NewCatalog creates an empty catalog.
func NewCatalog(dfs *hdfs.DFS, cluster *topology.Cluster) *Catalog {
	return &Catalog{dfs: dfs, cluster: cluster, tables: make(map[string]*Table)}
}

// Lookup returns a registered table.
func (c *Catalog) Lookup(name string) (*Table, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("query: unknown table %q", name)
	}
	return t, nil
}

// Register adds an existing table (e.g. a query result) to the catalog.
func (c *Catalog) Register(t *Table) error {
	if t.Name == "" || len(t.Schema) == 0 {
		return fmt.Errorf("query: table needs a name and schema")
	}
	if len(t.Files) == 0 {
		return fmt.Errorf("query: table %q has no files", t.Name)
	}
	if _, exists := c.tables[t.Name]; exists {
		return fmt.Errorf("query: table %q already exists", t.Name)
	}
	c.tables[t.Name] = t
	return nil
}

// reserved marks the bytes no value may contain: the runtime's framing bytes
// (tab, newline), the column separator, and NUL (reserved by the
// descending-sort encoding). A value smuggling one of them would silently
// corrupt every downstream row decode.
var reserved = [256]bool{'\t': true, '\n': true, sepByte: true, 0: true}

// Create materializes rows as a new table spread over files input files,
// staged instantly (experiment setup, like the workload generators). Each
// file is encoded into one buffer of exactly its size.
func (c *Catalog) Create(name string, schema Schema, rows []Row, files int) (*Table, error) {
	if files <= 0 {
		files = 1
	}
	for _, r := range rows {
		if len(r) != len(schema) {
			return nil, fmt.Errorf("query: row width %d != schema width %d", len(r), len(schema))
		}
		for j, v := range r {
			for i := 0; i < len(v); i++ {
				if reserved[v[i]] {
					return nil, fmt.Errorf("query: value %q for column %q contains a reserved byte (tab, newline, 0x1f, or NUL)", v, schema[j])
				}
			}
		}
	}
	t := &Table{Name: name, Schema: schema}
	workers := c.cluster.Workers()
	perFile := (len(rows) + files - 1) / files
	for i := 0; i < files; i++ {
		lo := i * perFile
		if lo >= len(rows) && i > 0 {
			break
		}
		hi := lo + perFile
		if hi > len(rows) {
			hi = len(rows)
		}
		size := 0
		for _, r := range rows[lo:hi] {
			size += len(r) // a separator after every field but the last, then a newline
			for _, v := range r {
				size += len(v)
			}
		}
		buf := make([]byte, 0, size)
		for _, r := range rows[lo:hi] {
			for j, v := range r {
				if j > 0 {
					buf = append(buf, sepByte)
				}
				buf = append(buf, v...)
			}
			buf = append(buf, '\n')
		}
		file := fmt.Sprintf("/warehouse/%s/part-%05d", name, i)
		if _, err := c.dfs.PutInstant(file, buf, workers[i%len(workers)]); err != nil {
			return nil, err
		}
		t.Files = append(t.Files, file)
	}
	if err := c.Register(t); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadTable loads a table's rows (costlessly; for verification and for
// returning final results to the caller). Lines are framed as LineFormat
// frames them for a query's scan: every newline-terminated line is a row,
// empty or not, and so is a non-empty unterminated tail.
//
// Each file becomes one string and one field array, whatever its rows: a
// row is a window into the array and its values are substrings of the
// string. The rows of one file therefore share that string, and keeping
// any one of them keeps the whole file's bytes alive.
func (c *Catalog) ReadTable(t *Table) ([]Row, error) {
	var rows []Row
	w := len(t.Schema)
	var inline [inlineFields]span
	sp := spans(inline[:0])
	for _, f := range t.Files {
		file, err := c.dfs.Contents(f)
		if err != nil {
			return nil, err
		}
		n := bytes.Count(file, newline)
		if len(file) > 0 && file[len(file)-1] != '\n' {
			n++
		}
		s := string(file)
		fields := make([]string, 0, n*w)
		rows = slices.Grow(rows, n)
		for data := file; len(data) > 0; {
			line := data
			if i := bytes.IndexByte(data, '\n'); i >= 0 {
				line, data = data[:i], data[i+1:]
			} else {
				data = nil
			}
			row := rowBytes(line)
			if sp = splitFields(row, sp[:0]); len(sp) != w {
				return nil, fmt.Errorf("query: table %q: row %q decodes to %d columns, schema %v has %d",
					t.Name, line, len(sp), []string(t.Schema), len(t.Schema))
			}
			// row is a sub-slice of file, so their capacities differ by its
			// offset.
			off := cap(file) - cap(row)
			k := len(fields)
			for _, x := range sp {
				fields = append(fields, s[off+x.lo:off+x.hi])
			}
			rows = append(rows, Row(fields[k:len(fields):len(fields)]))
		}
	}
	return rows, nil
}
