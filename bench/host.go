package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The host the benchmark was set up on is a 2-processor VM whose two
// virtual processors are, for spells of a few seconds to a minute and a
// half every quarter of an hour or so, given one real processor between
// them: two busy threads then each run at half speed, the guest sees no
// steal time, and a request that crosses from the generator's thread to
// the server's waits for the host's scheduler. A run measured during a
// spell reads 2x low on throughput and 10x to 100x high on latency, and
// a spell covers several runs in a row. No statistic taken inside a run
// survives that, so the harness looks before it measures: a thread
// alone and two threads at once run the same fixed loop, and when each
// of the two takes much longer than the one alone, the run waits for
// the spell to pass. It never waits long: a run has a limit, and so has
// everything run from one checkout together, kept in a file under
// bench/out, so that a host that is never quiet costs a bounded time
// and is then measured as it is.
const (
	spinLaps        = 12_000_000 // about 25 ms of one processor
	quietSlowdown   = 1.4        // two threads at once may each take this many times what one alone takes
	waitStep        = 500 * time.Millisecond
	maxWaitPerRun   = 60 * time.Second
	maxWaitPerTree  = 300 * time.Second
	waitedFile      = "host-waited-seconds"
	quietChecksDone = 2 // consecutive quiet readings that end a wait
)

// spin runs a fixed loop no compiler folds and returns how long it took.
func spin() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < spinLaps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(t0)
	if x == 0 { // never: xorshift has no zero state; keeps x live
		return 0
	}
	return d
}

// slowdownOfTwo is how many times longer the fixed loop takes on each
// of two threads running at once than on one thread alone: about 1 when
// the host gives the guest both its processors, about 2 when it gives
// it one.
func slowdownOfTwo() float64 {
	alone := spin()
	var both [2]time.Duration
	var wg sync.WaitGroup
	for i := range both {
		wg.Add(1) //acqlint:ignore errdrop sync.WaitGroup.Add returns nothing; name-collision with error-returning Add methods
		go func() {
			defer wg.Done()
			both[i] = spin()
		}()
	}
	wg.Wait()
	return float64(max(both[0], both[1])) / float64(alone)
}

// quietHost waits until two threads run about as fast as one, for at
// most what is left of the run's and of the checkout's allowance, and
// returns how long it waited. The allowance spent is kept in outDir.
func quietHost(ctx context.Context, outDir string, leftThisRun *time.Duration) time.Duration {
	if runtime.NumCPU() < 2 {
		return 0
	}
	path := filepath.Join(outDir, waitedFile)
	spent := 0.0
	if raw, err := os.ReadFile(path); err == nil {
		spent, _ = strconv.ParseFloat(strings.TrimSpace(string(raw)), 64)
	}
	left := min(*leftThisRun, maxWaitPerTree-time.Duration(spent*float64(time.Second)))
	start := time.Now()
	for quiet := 0; quiet < quietChecksDone && ctx.Err() == nil; {
		if slowdownOfTwo() <= quietSlowdown {
			quiet++
			continue
		}
		if time.Since(start) >= left {
			break
		}
		quiet = 0
		time.Sleep(waitStep)
	}
	waited := time.Since(start)
	if waited < waitStep {
		return 0 // the readings themselves; nothing was waited for
	}
	*leftThisRun -= waited
	// Losing the note costs a later run a longer wait, nothing else.
	_ = os.WriteFile(path, []byte(fmt.Sprintf("%.1f\n", spent+waited.Seconds())), 0o644)
	return waited
}
