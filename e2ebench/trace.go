package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one call into a layer, timed from the benchmark's side.
// Parent 0 is the root. All spans of one run share Run.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Run    string  `json:"run"`
	closed bool
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing off: every method is a no-op, so timed runs share the code.
// It is safe for concurrent use (sweep workers record cell spans).
type tracer struct {
	mu    sync.Mutex
	run   string
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now()}
}

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, Run: t.run})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].closed = true
}

// durations returns the durations of every closed span named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.closed {
			out = append(out, s.dur())
		}
	}
	return out
}

// childDurations returns the durations of the closed direct children
// of span parent.
func (t *tracer) childDurations(parent int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Parent == parent && s.closed {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes sums each span name's self time: its duration minus the
// part covered by its direct children.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.closed {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		if s.closed {
			out[s.Name] += s.dur() - child[s.ID]
		}
	}
	return out
}

// write stores the manifest, the spans and per-name self times under
// .bench_build/spans in the working directory and returns the path.
func (t *tracer) write(man manifest) (string, error) {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	self := t.selfTimes()
	t.mu.Lock()
	doc := struct {
		Manifest manifest           `json:"manifest"`
		SelfS    map[string]float64 `json:"self_s"`
		Spans    []span             `json:"spans"`
	}{man, self, t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, man.Workload+"-seed"+jsonInt(man.Seed)+".json")
	return path, os.WriteFile(path, b, 0o644)
}

func jsonInt(v int64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// sourceIdentity returns the git revision of the checkout, as run.py
// passes it in E2EBENCH_GIT_REV (empty outside a git checkout), and a
// digest of the Go sources and module files under the working
// directory, which identifies the code where there is no revision.
func sourceIdentity() (rev, digest string) {
	rev = os.Getenv("E2EBENCH_GIT_REV")
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write(b)
	}
	return rev, hex.EncodeToString(h.Sum(nil))[:16]
}

// median returns the middle value (mean of the two middle values for
// an even count); 0 for an empty sample.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
