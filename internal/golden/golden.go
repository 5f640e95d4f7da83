// Package golden pins protocol outputs to committed digests. A test folds
// what a run produced — the matching, the Stats exported fields with the
// per-round profile, an event trace — into a Digest and checks it against
// the table committed under its package's testdata/golden/ directory.
// One table line is "<case> <digest>".
//
// A digest changes only when a protocol's observable behaviour does: a
// different send, RNG draw, round or oracle call. After an intended
// protocol change, re-record the affected tables with
//
//	DISTMATCH_GOLDEN_UPDATE=1 go test ./internal/...
//
// and commit the rewritten files alongside the change. Update mode still
// fails a case whose digest differs between two runs in the same test
// (say, two worker counts), so re-recording cannot paper over a
// determinism bug.
package golden

import (
	"bufio"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"distmatch/internal/dist"
	"distmatch/internal/graph"
)

// UpdateEnv names the environment variable that switches Check from
// comparing against the committed tables to rewriting them.
const UpdateEnv = "DISTMATCH_GOLDEN_UPDATE"

// Digest is a running FNV-1a hash over a sequence of values.
type Digest struct{ h hash.Hash64 }

// New returns an empty digest.
func New() *Digest { return &Digest{h: fnv.New64a()} }

// Add folds each value into the digest through its %#v rendering, which
// is exact for integers, floats, bools, strings and slices or structs of
// them, and orders map keys.
func (d *Digest) Add(vs ...any) *Digest {
	for _, v := range vs {
		fmt.Fprintf(d.h, "%#v\n", v)
	}
	return d
}

// Matching folds in m's edge ids in increasing order.
func (d *Digest) Matching(g *graph.Graph, m *graph.Matching) *Digest {
	return d.Add(m.Edges(g))
}

// Stats folds in every exported Stats field, the per-round profile
// included.
func (d *Digest) Stats(st *dist.Stats) *Digest {
	d.Add(st.Rounds, st.Messages, st.Bits, st.MaxMessageBits, st.NodeRounds,
		st.OracleCalls, st.SuppressedMessages, st.CrashedNodes, len(st.Profile))
	for _, p := range st.Profile {
		d.Add(p.Messages, p.Bits, p.MaxBits, p.Oracle)
	}
	return d
}

// String renders the digest as 16 hex digits.
func (d *Digest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// Table is one test's committed digests, keyed by case name.
type Table struct {
	path   string
	update bool

	mu   sync.Mutex
	want map[string]string
	got  map[string]string
}

// Open loads testdata/golden/<name>.txt of the calling package. In update
// mode the file is rewritten when t finishes, keeping the committed cases
// this run did not check.
func Open(t *testing.T, name string) *Table {
	t.Helper()
	tb := &Table{
		path:   filepath.Join("testdata", "golden", name+".txt"),
		update: os.Getenv(UpdateEnv) != "",
		want:   map[string]string{},
		got:    map[string]string{},
	}
	if err := tb.load(); err != nil && !(tb.update && os.IsNotExist(err)) {
		t.Fatalf("golden: %v (record with %s=1)", err, UpdateEnv)
	}
	if tb.update {
		t.Cleanup(func() {
			if err := tb.save(); err != nil {
				t.Errorf("golden: %v", err)
			}
		})
	}
	return tb
}

// Check compares d with the committed digest of key. Every check of one
// key within a test must produce the same digest, in update mode too.
func (tb *Table) Check(t testing.TB, key string, d *Digest) {
	t.Helper()
	sum := d.String()
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if prev, ok := tb.got[key]; ok && prev != sum {
		t.Errorf("golden %s: digest %s differs from %s computed earlier in this test", key, sum, prev)
		return
	}
	tb.got[key] = sum
	if tb.update {
		return
	}
	switch want, ok := tb.want[key]; {
	case !ok:
		t.Errorf("golden %s: no committed digest in %s (record with %s=1)", key, tb.path, UpdateEnv)
	case want != sum:
		t.Errorf("golden %s: digest %s, committed %s in %s", key, sum, want, tb.path)
	}
}

func (tb *Table) load() error {
	f, err := os.Open(tb.path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			return fmt.Errorf("%s: malformed line %q", tb.path, sc.Text())
		}
		tb.want[key] = sum
	}
	return sc.Err()
}

func (tb *Table) save() error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	for k, v := range tb.got {
		tb.want[k] = v
	}
	keys := make([]string, 0, len(tb.want))
	for k := range tb.want {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, tb.want[k])
	}
	if err := os.MkdirAll(filepath.Dir(tb.path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(tb.path, []byte(b.String()), 0o644)
}
