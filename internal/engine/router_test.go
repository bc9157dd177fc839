package engine

import (
	"fmt"
	"sync"
	"testing"
)

// openRouterDB deploys a handful of account reactors on a single container
// with the given router and executor count, returning the container.
func openRouterDB(t *testing.T, kind RouterKind, executors, reactors int) (*Database, *Container) {
	t.Helper()
	cfg := Config{Containers: 1, ExecutorsPerContainer: executors, Router: kind}
	db := openAccounts(t, reactors, 100, cfg)
	return db, db.Containers()[0]
}

func TestRoundRobinRouteCyclesThroughExecutors(t *testing.T) {
	const executors = 3
	_, c := openRouterDB(t, RouterRoundRobin, executors, 2)
	for round := 0; round < 4; round++ {
		for want := 0; want < executors; want++ {
			got := c.route("acct-0").ID()
			if got != want {
				t.Fatalf("round %d: Route returned executor %d, want %d (wraparound broken)", round, got, want)
			}
		}
	}
}

func TestRoundRobinWraparoundUnderConcurrentRoute(t *testing.T) {
	const (
		executors  = 4
		goroutines = 8
		perG       = 400
	)
	_, c := openRouterDB(t, RouterRoundRobin, executors, 2)

	counts := make([]int64, executors)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]int64, executors)
			for i := 0; i < perG; i++ {
				local[c.route("acct-1").ID()]++
			}
			mu.Lock()
			for i, n := range local {
				counts[i] += n
			}
			mu.Unlock()
		}()
	}
	wg.Wait()

	// The atomic round-robin counter assigns each of the goroutines*perG
	// tickets exactly once, so the distribution must be perfectly even.
	want := int64(goroutines * perG / executors)
	for i, n := range counts {
		if n != want {
			t.Fatalf("executor %d received %d requests, want exactly %d (counts=%v)", i, n, want, counts)
		}
	}
}

func TestAffinityRouterStableUnderConcurrentRoute(t *testing.T) {
	const (
		executors  = 4
		reactors   = 6
		goroutines = 8
		perG       = 100
	)
	_, c := openRouterDB(t, RouterAffinity, executors, reactors)

	for r := 0; r < reactors; r++ {
		reactor := fmt.Sprintf("acct-%d", r)
		want := c.route(reactor).ID()
		var wg sync.WaitGroup
		errCh := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					if got := c.route(reactor).ID(); got != want {
						errCh <- fmt.Errorf("reactor %s routed to executor %d, expected stable %d", reactor, got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errCh)
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}

func TestAffinityRouterHonoursConfiguredAffinity(t *testing.T) {
	cfg := Config{Containers: 1, ExecutorsPerContainer: 4, Router: RouterAffinity}
	cfg.Affinity = func(reactor string) int {
		var idx int
		fmt.Sscanf(reactor, "acct-%d", &idx)
		return idx
	}
	db := openAccounts(t, 4, 100, cfg)
	c := db.Containers()[0]
	for i := 0; i < 4; i++ {
		reactor := fmt.Sprintf("acct-%d", i)
		if got := c.route(reactor).ID(); got != i {
			t.Fatalf("reactor %s routed to executor %d, want %d", reactor, got, i)
		}
	}
}
