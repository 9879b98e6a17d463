package main

import (
	"errors"
	"time"
)

// errDeadline reports a call that did not return within its limit.
var errDeadline = errors.New("deadline exceeded")

// callWithin runs fn on its own goroutine and waits at most limit for it.
// A call that overruns is abandoned: its goroutine stays blocked until the
// caller tears down what it was blocked on (closing the cluster's
// connections) or the process exits. That is what keeps a daemon hang
// from stalling the benchmark.
func callWithin(limit time.Duration, fn func() error) error {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		return errDeadline
	}
}
