package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"acqp/internal/datagen"
	"acqp/internal/query"
	"acqp/internal/sql"
)

func testWorld(t *testing.T) *world {
	t.Helper()
	w, err := newWorld()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// sample is how many requests of a workload the sequence tests look at:
// several rounds of a pool, several blocks of a list of distinct queries.
func sample(spec workloadSpec) int {
	if spec.pool > 0 {
		return 6 * spec.pool
	}
	return 6 * spec.rate
}

func wire(seq *sequence, n int) []byte {
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		req := seq.at(i)
		buf.WriteString(req.path)
		buf.WriteByte(byte('0' + req.target))
		buf.Write(req.body)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestSchemaIsTheLabSchema(t *testing.T) {
	w := testWorld(t)
	lab := datagen.LabSchema(datagen.LabConfig{Motes: 45})
	if w.s.NumAttrs() != lab.NumAttrs() {
		t.Fatalf("schemaSpec has %d attributes, the lab simulator %d", w.s.NumAttrs(), lab.NumAttrs())
	}
	for a := 0; a < lab.NumAttrs(); a++ {
		if w.s.Name(a) != lab.Name(a) || w.s.K(a) != lab.K(a) || w.s.Cost(a) != lab.Cost(a) {
			t.Errorf("attribute %d: schemaSpec says %v, the lab simulator %v", a, w.s.Attr(a), lab.Attr(a))
		}
	}
	if w.tbl.NumRows() != historyRows || w.window().NumRows() != windowSize {
		t.Errorf("history %d rows, window %d", w.tbl.NumRows(), w.window().NumRows())
	}
}

// The same seed must give the same bytes on the wire, request by
// request, and another seed other bytes.
func TestSameSeedSameRequests(t *testing.T) {
	w := testWorld(t)
	for _, spec := range workloads {
		n := sample(spec)
		a, b := wire(newSequence(w, spec, 7), n), wire(newSequence(w, spec, 7), n)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two sequences of seed 7 differ", spec.name)
		}
		if c := wire(newSequence(w, spec, 8), n); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same %d requests", spec.name, n)
		}
	}
}

// Generating further must not change what was generated: request i is
// the same whether the sequence is asked for i first or last.
func TestSequenceDoesNotDependOnHowFarItRuns(t *testing.T) {
	w := testWorld(t)
	spec, _ := findWorkload("plan_hit")
	far, near := newSequence(w, spec, 3), newSequence(w, spec, 3)
	far.at(1000)
	for _, i := range []int{0, 63, 64, 500} {
		if !bytes.Equal(far.at(i).body, near.at(i).body) {
			t.Errorf("request %d differs once the sequence has run to 1000", i)
		}
	}
}

// The server is sent SQL, and a model name where the workload has one:
// never the seed, an index or anything else of the generator's.
func TestServerSeesOnlyGeneratedBodies(t *testing.T) {
	w := testWorld(t)
	for _, spec := range workloads {
		seq := newSequence(w, spec, 1)
		for i := 0; i < sample(spec); i++ {
			req := seq.at(i)
			var fields map[string]string
			if err := json.Unmarshal(req.body, &fields); err != nil {
				t.Fatalf("%s request %d: body %s: %v", spec.name, i, req.body, err)
			}
			want := map[string]string{"sql": req.sql}
			if spec.model != "" {
				want["model"] = spec.model
			}
			if !reflect.DeepEqual(fields, want) {
				t.Fatalf("%s request %d: body %s", spec.name, i, req.body)
			}
			if req.path != spec.path || req.target < 0 || req.target >= spec.nodes {
				t.Fatalf("%s request %d: path %s, entry node %d", spec.name, i, req.path, req.target)
			}
		}
	}
}

func canonicalKey(t *testing.T, w *world, text string) string {
	t.Helper()
	st, err := sql.Parse(w.s, text)
	if err != nil {
		t.Fatalf("%q: %v", text, err)
	}
	preds, ok := st.Predicates()
	if !ok {
		t.Fatalf("%q is not a conjunction", text)
	}
	canon, err := query.Canonical(w.s, preds)
	if err != nil {
		t.Fatalf("%q: %v", text, err)
	}
	return canon.Key()
}

// Every spelling, canonical or variant, must reach the server's cache
// under its pool query's key, and a variant's bytes must be new.
func TestVariantsCanonicalizeToTheirPoolQuery(t *testing.T) {
	w := testWorld(t)
	spec, _ := findWorkload("plan_hit")
	seq := newSequence(w, spec, 5)
	seen := map[string]bool{}
	for _, req := range seq.pool {
		seen[string(req.body)] = true
	}
	n, variants := 40*spec.pool, 0
	for i := 0; i < n; i++ {
		req := seq.at(i)
		want := seq.pool[req.pool].q.Key()
		if req.q.Key() != want {
			t.Fatalf("request %d carries query %s, its pool entry is %s", i, req.q.Key(), want)
		}
		if got := canonicalKey(t, w, req.sql); got != want {
			t.Fatalf("request %d: %q canonicalizes to %s, want %s", i, req.sql, got, want)
		}
		if req.variant {
			variants++
			if seen[string(req.body)] {
				t.Fatalf("request %d: variant %q was sent before", i, req.sql)
			}
			seen[string(req.body)] = true
		} else if !bytes.Equal(req.body, seq.pool[req.pool].body) {
			t.Fatalf("request %d: a repeat that is not byte-identical to its pool entry", i)
		}
	}
	if variants*spec.variantEvery != n {
		t.Errorf("%d variants in %d requests, want one in %d", variants, n, spec.variantEvery)
	}
}

// Whole rounds ask every pool query equally often, and on a cluster
// send each query through every node in turn.
func TestPoolRoundsAreBalanced(t *testing.T) {
	w := testWorld(t)
	spec, _ := findWorkload("cluster3_hit")
	seq := newSequence(w, spec, 2)
	count := make([][]int, spec.pool)
	for i := 0; i < spec.nodes*spec.pool; i++ {
		req := seq.at(i)
		if count[req.pool] == nil {
			count[req.pool] = make([]int, spec.nodes)
		}
		count[req.pool][req.target]++
	}
	for p, byNode := range count {
		for node, c := range byNode {
			if c != 1 {
				t.Errorf("pool query %d entered at node %d %d times in %d rounds", p, node, c, spec.nodes)
			}
		}
	}
}

// A workload without a pool never repeats a canonical query, and the
// list it asks is the same whatever the seed: only its order changes.
func TestMissQueriesAreDistinctAndFixed(t *testing.T) {
	w := testWorld(t)
	spec, _ := findWorkload("plan_miss")
	n := sample(spec)
	a, b := newSequence(w, spec, 1), newSequence(w, spec, 2)
	keysA, keysB := map[string]bool{}, map[string]bool{}
	for i := 0; i < n; i++ {
		keysA[a.at(i).q.Key()] = true
		keysB[b.at(i).q.Key()] = true
		if k := len(a.at(i).q.Preds); k < spec.minPreds || k > spec.maxPreds {
			t.Fatalf("request %d has %d predicates", i, k)
		}
	}
	if len(keysA) != n {
		t.Errorf("%d distinct queries in %d requests", len(keysA), n)
	}
	for k := range keysA {
		if !keysB[k] {
			t.Fatalf("query %s is asked under seed 1 and not under seed 2", k)
		}
	}
	for _, warm := range a.warm {
		if keysA[warm.q.Key()] {
			t.Errorf("warm-up query %s is asked again in the run", warm.q.Key())
		}
	}
}

func TestIngestBodyIsTheStream(t *testing.T) {
	w := testWorld(t)
	var got struct {
		Rows [][]int `json:"rows"`
	}
	if err := json.Unmarshal(w.ingestBody(3), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != ingestBatchRows {
		t.Fatalf("%d rows in a batch, want %d", len(got.Rows), ingestBatchRows)
	}
	for i, row := range got.Rows {
		for a, v := range row {
			if want := int(w.stream.Value(3*ingestBatchRows+i, a)); v != want {
				t.Fatalf("batch 3 row %d attribute %d: %d, the stream has %d", i, a, v, want)
			}
		}
	}
}
