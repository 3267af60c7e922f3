// Package query implements a miniature Hive/Pig-style dataflow frontend
// over the MapReduce runtime — the workload that motivates the paper:
// "higher level query languages, such as Hive and Pig, would handle a
// complex query by breaking it into smaller ad-hoc ones." A logical plan
// (scan → filter/project → group-by / join / order-by) compiles into a
// chain of short MapReduce jobs, each submitted through the MRapid
// framework, with intermediate tables materialized in HDFS.
package query

import (
	"bytes"
	"fmt"
	"strings"

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

// EncodeRow serializes a row for transport through pair keys/values.
func EncodeRow(r Row) []byte { return []byte(strings.Join(r, colSep)) }

// DecodeRow parses an encoded row. An empty encoding decodes as one empty
// column: zero-width rows cannot exist (schemas are non-empty), so the
// single-empty-column reading makes Encode/Decode a lossless round trip for
// every legal row.
func DecodeRow(b []byte) Row {
	return Row(strings.Split(string(b), colSep))
}

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

// Create materializes rows as a new table spread over files input files,
// staged instantly (experiment setup, like the workload generators).
func (c *Catalog) Create(name string, schema Schema, rows []Row, files int) (*Table, error) {
	if files <= 0 {
		files = 1
	}
	for _, r := range rows {
		if len(r) != len(schema) {
			return nil, fmt.Errorf("query: row width %d != schema width %d", len(r), len(schema))
		}
		// The runtime's framing bytes (tab, newline), the column separator,
		// and NUL (reserved by the descending-sort encoding) may not appear
		// inside values: a value smuggling one of them would silently corrupt
		// every downstream row decode.
		for j, v := range r {
			if strings.ContainsAny(v, "\t\n"+colSep+"\x00") {
				return nil, fmt.Errorf("query: value %q for column %q contains a reserved byte (tab, newline, 0x1f, or NUL)", v, schema[j])
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
		var buf bytes.Buffer
		for _, r := range rows[lo:hi] {
			buf.Write(EncodeRow(r))
			buf.WriteByte('\n')
		}
		file := fmt.Sprintf("/warehouse/%s/part-%05d", name, i)
		if _, err := c.dfs.PutInstant(file, buf.Bytes(), workers[i%len(workers)]); err != nil {
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
// returning final results to the caller).
func (c *Catalog) ReadTable(t *Table) ([]Row, error) {
	var rows []Row
	for _, f := range t.Files {
		data, err := c.dfs.Contents(f)
		if err != nil {
			return nil, err
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			row := DecodeRow(rowBytes(line))
			if len(row) != len(t.Schema) {
				return nil, fmt.Errorf("query: table %q: row %q decodes to %d columns, schema %v has %d",
					t.Name, line, len(row), []string(t.Schema), len(t.Schema))
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
