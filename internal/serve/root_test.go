package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"fttt/internal/geom"
	"fttt/internal/randx"
)

// TestSharedRootConcurrentDerivation pins the Session.root contract
// under the race detector (make raceserve): every request derives its
// stream from the one shared root, so Split, SplitN and RequestStream
// must read the root without writing it, from any number of goroutines
// at once, while each goroutine draws from the children it owns — and
// served Localize calls on the same session derive from that root at
// the same time. Every child must match its serial derivation draw for
// draw.
func TestSharedRootConcurrentDerivation(t *testing.T) {
	srv := New(Config{})
	sess, err := srv.CreateSession(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.CloseSession(sess.ID())
	// The session's root is untouched until the concurrent phase; the
	// serial reference derives from a separate root on the same seed.
	root, ref := sess.root, randx.New(3)

	const workers, reqs = 6, 40
	// draws is what a child yields first; serial reference below.
	draws := func(s *randx.Stream) [3]float64 {
		return [3]float64{s.Float64(), s.Normal(0, 1), float64(s.Intn(1000))}
	}
	type key struct{ w, n int }
	want := make(map[key][3][3]float64)
	for w := 0; w < workers; w++ {
		target := fmt.Sprintf("t%d", w)
		for n := 0; n < reqs; n++ {
			want[key{w, n}] = [3][3]float64{
				draws(ref.Split(target)),
				draws(ref.SplitN(target, n)),
				draws(RequestStream(ref, target, uint64(n))),
			}
		}
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 2*workers)
	for w := 0; w < workers; w++ {
		target := fmt.Sprintf("t%d", w)
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < reqs; n++ {
				got := [3][3]float64{
					draws(root.Split(target)),
					draws(root.SplitN(target, n)),
					draws(RequestStream(root, target, uint64(n))),
				}
				if got != want[key{w, n}] {
					errs <- fmt.Errorf("worker %d request %d: concurrent derivation drew %v, serial %v", w, n, got, want[key{w, n}])
					return
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			for n := 0; n < reqs/4; n++ {
				if _, err := sess.Localize(ctx, target, geom.Pt(10+float64(n), 30)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
