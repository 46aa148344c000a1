package sweep

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"hornet/internal/fsatomic"
)

// ConfigHash returns a stable 16-hex-digit hash of the canonical JSON
// encoding of the given values. Two sweeps whose identifying inputs
// (figure name, scale options, seed, ...) hash equal will produce
// identical output documents, which is what makes the hash usable as a
// cache/resume key: encoding/json sorts map keys and struct fields are
// emitted in declaration order, so the encoding — and therefore the
// hash — does not vary between runs or machines.
func ConfigHash(vs ...any) string {
	h := fnv.New64a()
	for _, v := range vs {
		b, err := json.Marshal(v)
		if err != nil {
			panic(fmt.Sprintf("sweep: ConfigHash: %v", err))
		}
		h.Write(b)
		h.Write([]byte{0}) // separator so ("ab","c") != ("a","bc")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// RunRecord is one run in an emitted Document.
type RunRecord struct {
	Key   string `json:"key"`
	Seed  uint64 `json:"seed"`
	Err   string `json:"err,omitempty"`
	Value any    `json:"value,omitempty"`
}

// Document is the JSON envelope for one sweep's results. Wall-clock and
// worker counts are deliberately omitted: a document is a pure function
// of (name, config hash, seed), byte-identical at any parallelism.
type Document struct {
	Name       string      `json:"name"`
	ConfigHash string      `json:"config_hash"`
	Seed       uint64      `json:"seed"`
	Runs       []RunRecord `json:"runs"`
}

// NewDocument packages ordered results into a Document.
func NewDocument(name, configHash string, seed uint64, results []Result) Document {
	doc := Document{Name: name, ConfigHash: configHash, Seed: seed}
	for _, r := range results {
		rec := RunRecord{Key: r.Key, Seed: r.Seed, Value: r.Value}
		if r.Err != nil {
			rec.Err = r.Err.Error()
		}
		doc.Runs = append(doc.Runs, rec)
	}
	return doc
}

// WriteJSON emits the document with stable two-space indentation.
func (d Document) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Cache stores emitted documents on disk keyed by (name, config hash),
// enabling sweep resume: a driver checks Load before re-running a
// sweep whose identifying configuration has not changed.
type Cache struct{ Dir string }

// Path returns the file backing a (name, hash) pair.
func (c Cache) Path(name, hash string) string {
	return filepath.Join(c.Dir, name+"-"+hash+".json")
}

// Load reads a cached document if present. The boolean reports whether
// the cache held the document.
func (c Cache) Load(name, hash string) (Document, bool, error) {
	var doc Document
	b, err := os.ReadFile(c.Path(name, hash))
	if os.IsNotExist(err) {
		return doc, false, nil
	}
	if err != nil {
		return doc, false, err
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		// A truncated or mangled entry (e.g. a run killed mid-Store) is a
		// cache miss, not a fatal error: the caller recomputes and
		// overwrites it.
		return Document{}, false, nil
	}
	return doc, true, nil
}

// Store writes a document to the cache, creating the directory as
// needed. The write goes through a temp file and rename so an
// interrupted run never leaves a half-written entry behind.
func (c Cache) Store(doc Document) error {
	return fsatomic.Write(c.Path(doc.Name, doc.ConfigHash), func(w io.Writer) error {
		return doc.WriteJSON(w)
	})
}
