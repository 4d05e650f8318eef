package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestSpanParentChildExport(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("detect_run")
	root.SetArg("collectors", 4)
	child := root.Start("build_history")
	grand := child.Start("merge")
	grand.End()
	child.End()
	root.End()
	root.End() // double End is a no-op

	if tr.Len() != 3 {
		t.Fatalf("tracer holds %d spans, want 3", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(events) != 3 {
		t.Fatalf("%d events, want 3", len(events))
	}
	byName := make(map[string]map[string]any)
	for _, ev := range events {
		if ev["ph"] != "X" {
			t.Errorf("event %v is not a complete event", ev["name"])
		}
		byName[ev["name"].(string)] = ev
	}
	if byName["detect_run"]["args"].(map[string]any)["collectors"] != 4.0 {
		t.Error("root span lost its args")
	}
	rootTid := byName["detect_run"]["tid"]
	for _, name := range []string{"build_history", "merge"} {
		if byName[name]["tid"] != rootTid {
			t.Errorf("%s is not on the root's track", name)
		}
		if _, ok := byName[name]["args"].(map[string]any)["parent_span"]; !ok {
			t.Errorf("%s has no parent_span arg", name)
		}
	}
}

// TestTraceParentsResolve exports a three-level tree with two branches
// and rebuilds it from the file: every parent_span must name the
// span_id of an exported span, and each span's parent must be the one
// it was started from.
func TestTraceParentsResolve(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("root")
	for _, branch := range []string{"a", "b"} {
		child := root.Start(branch)
		child.Start(branch + ".leaf").End()
		child.End()
	}
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string
		Args struct {
			SpanID     *uint64 `json:"span_id"`
			ParentSpan *uint64 `json:"parent_span"`
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	nameOf := make(map[uint64]string)
	for _, ev := range events {
		if ev.Args.SpanID == nil {
			t.Fatalf("%s has no span_id arg", ev.Name)
		}
		nameOf[*ev.Args.SpanID] = ev.Name
	}
	want := map[string]string{"root": "", "a": "root", "b": "root", "a.leaf": "a", "b.leaf": "b"}
	if len(events) != len(want) {
		t.Fatalf("%d events, want %d", len(events), len(want))
	}
	for _, ev := range events {
		parent := ""
		if ev.Args.ParentSpan != nil {
			name, ok := nameOf[*ev.Args.ParentSpan]
			if !ok {
				t.Errorf("%s: parent_span %d names no exported span", ev.Name, *ev.Args.ParentSpan)
				continue
			}
			parent = name
		}
		if parent != want[ev.Name] {
			t.Errorf("%s: parent %q, want %q", ev.Name, parent, want[ev.Name])
		}
	}
}

func TestDisabledTracingIsInert(t *testing.T) {
	SetTracer(nil)
	sp := StartSpan("anything")
	if sp != nil {
		t.Fatal("StartSpan returned a live span with tracing disabled")
	}
	// All nil-span methods must be safe.
	sp.SetArg("k", "v")
	child := sp.Start("child")
	child.End()
	sp.End()
}

func TestInstalledTracerViaStartSpan(t *testing.T) {
	tr := NewTracer()
	SetTracer(tr)
	defer SetTracer(nil)
	sp := StartSpan("op")
	if sp == nil {
		t.Fatal("StartSpan returned nil with a tracer installed")
	}
	sp.End()
	if tr.Len() != 1 {
		t.Errorf("tracer holds %d spans, want 1", tr.Len())
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("fanout")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := root.Start("worker")
			sp.SetArg("n", 1)
			sp.End()
		}()
	}
	wg.Wait()
	root.End()
	if tr.Len() != 33 {
		t.Errorf("tracer holds %d spans, want 33", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
}
