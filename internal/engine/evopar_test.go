package engine

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"
)

// TestEvolutionParallelismGoldenResults is the golden byte-identity test
// for intra-cell evolution parallelism: a lone cell's evolution fans out
// over all Workers slots, so the marshaled Result of an ONES cell must be
// identical at Workers 1, 4 and GOMAXPROCS. Each setting uses a fresh
// Runner so every run truly simulates — Workers is excluded from CellKey,
// so a shared cache would short-circuit the comparison.
func TestEvolutionParallelismGoldenResults(t *testing.T) {
	cell := Cell{Scheduler: "ones", Capacity: 16}
	var golden []byte
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		res, err := NewRunner(testParams(workers)).Result(context.Background(), cell)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("workers %d: marshal: %v", workers, err)
		}
		if golden == nil {
			golden = raw
			continue
		}
		if string(raw) != string(golden) {
			t.Errorf("workers %d changed the Result bytes:\nwant %s\ngot  %s", workers, golden, raw)
		}
	}
}
