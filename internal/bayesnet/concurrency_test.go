package bayesnet

import (
	"sync"
	"testing"
)

// TestConcurrentInference fires goroutines at one network at once. Each
// Probability call expands the CPDs it reaches and compiles and runs a
// plan, so under -race this is the regression test for the inference
// read path (plan executions must not share mutable scratch between
// concurrent queries). Every answer must equal the sequential one exactly.
func TestConcurrentInference(t *testing.T) {
	net := fig1Net(t)
	events := []Event{
		{0: []int32{0}},
		{0: []int32{1}, 1: []int32{0, 1}},
		{1: []int32{2}, 2: []int32{1}},
		{0: []int32{0, 1}, 2: []int32{0}},
	}
	want := make([]float64, len(events))
	for i, evt := range events {
		p, err := fig1Net(t).Probability(evt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}

	const goroutines = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 25; r++ {
				i := (g + r) % len(events)
				p, err := net.Probability(events[i])
				if err != nil {
					errs <- err
					return
				}
				if p != want[i] {
					t.Errorf("goroutine %d event %d: P = %v, want %v", g, i, p, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
