package violations

import (
	"errors"
	"sync"
)

// Goroutinejoin: fire-and-forget goroutine with no join protocol.

func goNoProtocol(xs []int) {
	go func() { // want "goroutinejoin: goroutine has no join protocol: no WaitGroup.Done and no send/close on an enclosing channel"
		total := 0
		for _, v := range xs {
			total += v
		}
		_ = total
	}()
}

// Goroutinejoin: a path from the launch reaches return without Wait.

func goWaitEarlyReturn(xs []float32, skip bool) float32 {
	var wg sync.WaitGroup
	out := make([]float32, len(xs))
	wg.Add(1)
	go func() { // want "goroutinejoin: goroutine joined by wg.Wait, but a path from the launch reaches return without waiting"
		defer wg.Done()
		for i := range xs {
			out[i] = xs[i] * 2
		}
	}()
	if skip {
		return 0
	}
	wg.Wait()
	return out[0]
}

// Goroutinejoin: the done channel is received on one branch only and never
// leaves the function.

func goChanNoReceive(n int) {
	done := make(chan struct{})
	go func() { // want "goroutinejoin: goroutine signals on channel done, but no path after the launch is guaranteed to receive from it and the channel never leaves the function"
		close(done)
	}()
	if n > 0 {
		<-done
	}
}

// Not flagged: Add/Done/Wait balanced, with Wait on every path out.

func goJoined(xs []float32) float32 {
	var wg sync.WaitGroup
	out := make([]float32, len(xs))
	for i := range xs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = xs[i] * 2
		}(i)
	}
	wg.Wait()
	var sum float32
	for _, v := range out {
		sum += v
	}
	return sum
}

// Not flagged: the result channel is received on the only path out.

func goChanReceived(xs []int) int {
	done := make(chan int)
	go func() {
		total := 0
		for _, v := range xs {
			total += v
		}
		done <- total
	}()
	return <-done
}

// Pipeline constructor: returns a channel fed and closed by a goroutine it
// spawns. Not flagged itself — the channel leaves via return; its
// consumers carry the obligation to drain it.

func produceInts(n int) <-chan int {
	ch := make(chan int, 1)
	go func() {
		defer close(ch)
		for i := 0; i < n; i++ {
			ch <- i
		}
	}()
	return ch
}

var errTooLarge = errors.New("value over limit")

// Goroutinejoin: a consumer that can return early strands the producer
// blocked on send.

func consumeLeaky(n, limit int) (int, error) {
	vals := produceInts(n) // want "goroutinejoin: pipeline channel vals from produceInts is not drained on every path; an early return leaves the producer goroutine blocked on send — add `defer func() { for range vals { ... } }()` after the call"
	total := 0
	for i := 0; i < n; i++ {
		v := <-vals
		if v > limit {
			return total, errTooLarge
		}
		total += v
	}
	return total, nil
}

// Not flagged: the deferred drain lets the producer run to completion on
// every path, early returns included.

func consumeDrained(n, limit int) int {
	vals := produceInts(n)
	defer func() {
		for range vals {
		}
	}()
	total := 0
	for i := 0; i < n; i++ {
		v := <-vals
		if v > limit {
			return total
		}
		total += v
	}
	return total
}

// Suppressed: a deliberate fire-and-forget goroutine, annotated.

func goSuppressed(msgs []string, sink func(string)) {
	//lint:ignore goroutinejoin fixture demonstrating a suppressed fire-and-forget goroutine
	go func() {
		for _, m := range msgs {
			sink(m)
		}
	}()
}

// Goroutinejoin: ranging over the channel is a drain only if the loop runs
// to completion — an early return from the body strands the producer on its
// next send just as the indexed receive above does (the Materializer's
// append loop without its deferred drain).

func consumeRangeLeaky(n, limit int) (int, error) {
	vals := produceInts(n) // want "goroutinejoin: pipeline channel vals from produceInts is not drained on every path; an early return leaves the producer goroutine blocked on send — add `defer func() { for range vals { ... } }()` after the call"
	total := 0
	for v := range vals {
		if v > limit {
			return total, errTooLarge
		}
		total += v
	}
	return total, nil
}

// Not flagged: nothing in the body leaves the range loop — `continue` stays
// in it, and the unlabeled break binds to the switch.

func consumeRangeDrained(n, limit int) int {
	vals := produceInts(n)
	total := 0
	for v := range vals {
		if v > limit {
			continue
		}
		switch {
		case v%2 == 0:
			break
		default:
			total += v
		}
	}
	return total
}
