package server

// White-box tests of the singleflight flight lifecycle: the computation
// context must stay alive exactly as long as some waiter wants the
// artifact, and no longer. This is the property that makes both
// cooperative cancellation ("abandoned compiles stop burning CPU") and
// client-side hedging ("the losing hedge can't kill the winner's work")
// correct, so it is pinned deterministically here rather than by timing.

import (
	"context"
	"errors"
	"testing"
	"time"
)

// blockingFn returns a compute fn that signals `started`, then blocks
// until its flight context is canceled (returning errCanceledFlight) or
// `finish` is closed (returning a real artifact).
func blockingFn(started chan<- struct{}, finish <-chan struct{}) func(context.Context) (*Artifact, error) {
	return func(fctx context.Context) (*Artifact, error) {
		close(started)
		select {
		case <-fctx.Done():
			return nil, fctx.Err()
		case <-finish:
			return &Artifact{}, nil
		}
	}
}

// TestFlightCanceledWhenLastWaiterLeaves: with a single interested
// request, canceling its context cancels the in-flight computation and
// nothing is cached.
func TestFlightCanceledWhenLastWaiterLeaves(t *testing.T) {
	c := NewArtifactCache(16, &Metrics{})
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	finish := make(chan struct{})
	defer close(finish)

	go func() {
		<-started
		cancel()
	}()
	_, _, err := c.resolve(ctx, "k", c.probe("k"), blockingFn(started, finish))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled: the flight must observe the cancellation", err)
	}
	if c.Len() != 0 {
		t.Fatalf("canceled flight cached an artifact (len %d)", c.Len())
	}
}

// TestFlightSurvivesLosingWaiter: with two requests deduplicated onto
// one flight, the first one giving up must NOT cancel the computation —
// the second still gets the artifact. This is the hedging guarantee.
func TestFlightSurvivesLosingWaiter(t *testing.T) {
	c := NewArtifactCache(16, &Metrics{})
	started := make(chan struct{})
	finish := make(chan struct{})

	ctx1, cancel1 := context.WithCancel(context.Background())
	creatorDone := make(chan error, 1)
	go func() {
		_, _, err := c.resolve(ctx1, "k", c.probe("k"), blockingFn(started, finish))
		creatorDone <- err
	}()
	<-started

	// Second waiter joins the in-flight computation, then the FIRST
	// (creator) gives up. Wait until the dedup is registered before
	// canceling, so the refcount is provably 2 at cancellation time.
	ctx2 := context.Background()
	dedupJoined := make(chan struct{})
	waiterDone := make(chan error, 1)
	go func() {
		close(dedupJoined)
		art, cached, err := c.resolve(ctx2, "k", c.probe("k"), func(context.Context) (*Artifact, error) {
			t.Error("dedup waiter must not start its own computation")
			return nil, nil
		})
		if err == nil && (!cached || art == nil) {
			err = errors.New("dedup waiter: expected cached=true with an artifact")
		}
		waiterDone <- err
	}()
	<-dedupJoined
	// Give the waiter a moment to enter the select on call.done; the
	// refcount increment happens under the cache mutex before that, so
	// polling the dedup counter makes this deterministic.
	m := c.metrics
	deadline := time.Now().Add(2 * time.Second)
	for m.CacheDedups.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dedup waiter never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}

	cancel1() // the losing "hedge" gives up
	// The flight must keep running: fn would return context.Canceled
	// through creatorDone the instant its flight context were canceled.
	select {
	case err := <-creatorDone:
		t.Fatalf("flight died after the losing waiter left: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(finish) // the computation completes for the surviving waiter
	// The creator goroutine executed fn to completion on behalf of the
	// surviving waiter, so its own call returns the artifact too.
	if err := <-creatorDone; err != nil {
		t.Fatalf("creator (executor) err = %v, want nil", err)
	}
	if err := <-waiterDone; err != nil {
		t.Fatalf("surviving waiter: %v", err)
	}
	if c.Len() != 1 {
		t.Fatalf("completed flight not cached (len %d)", c.Len())
	}
}

// TestFlightErrorNotCached: a failed computation is reported to every
// waiter and never cached.
func TestFlightErrorNotCached(t *testing.T) {
	c := NewArtifactCache(16, &Metrics{})
	boom := errors.New("boom")
	_, cached, err := c.resolve(context.Background(), "k", c.probe("k"), func(context.Context) (*Artifact, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) || cached {
		t.Fatalf("got cached=%v err=%v", cached, err)
	}
	if c.Len() != 0 {
		t.Fatal("error was cached")
	}
}
