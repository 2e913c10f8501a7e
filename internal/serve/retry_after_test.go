package serve

import (
	"context"
	"testing"
	"time"

	"aspen/internal/lang"
)

func TestClampRetrySecs(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{-5, "1"},
		{0, "1"}, // the cold-start bug: an empty histogram must not emit 0
		{1, "1"},
		{42, "42"},
		{60, "60"},
		{61, "60"},
		{1 << 40, "60"},
	}
	for _, c := range cases {
		if got := clampRetrySecs(c.in); got != c.want {
			t.Errorf("clampRetrySecs(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestRetryAfterBounds pins the 429 hint at both ends: a cold server
// with no latency history answers at least 1 second, and a pathological
// backlog estimate is capped at maxRetryAfterSecs.
func TestRetryAfterBounds(t *testing.T) {
	s, err := New(Options{Languages: []*lang.Language{lang.JSON()}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := s.grammar("JSON")

	// Cold start: empty histogram, empty queue.
	if got := s.retryAfter(g); got != "1" {
		t.Errorf("cold-start Retry-After = %q, want %q", got, "1")
	}

	// A sub-second mean must round up to 1, never truncate to 0.
	g.m.requestNS.ObserveInt((50 * time.Millisecond).Nanoseconds())
	if err := s.sched.acquire(context.Background(), g.flow); err != nil {
		t.Fatal(err)
	}
	if got := s.retryAfter(g); got != "1" {
		t.Errorf("sub-second estimate Retry-After = %q, want %q", got, "1")
	}

	// A huge mean latency times a backlog is capped, not propagated.
	g.m.requestNS.ObserveInt((10 * time.Minute).Nanoseconds())
	if got := s.retryAfter(g); got != "60" {
		t.Errorf("pathological estimate Retry-After = %q, want %q", got, "60")
	}
	s.sched.release(g.flow)
}

// TestRetryAfterTracksBankLoss pins the hint to the width the scheduler
// drains a tenant's backlog at: after bank loss narrows a 4-worker
// tenant to one context, one held request at a 10 s mean latency means
// 10 s, not the 2 s its provisioned width would suggest.
func TestRetryAfterTracksBankLoss(t *testing.T) {
	s, err := New(Options{Languages: []*lang.Language{lang.JSON()}, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	g := s.grammar("JSON")
	s.sched.shrink(g.flow, 1)
	g.m.requestNS.ObserveInt((10 * time.Second).Nanoseconds())
	if err := s.sched.acquire(context.Background(), g.flow); err != nil {
		t.Fatal(err)
	}
	defer s.sched.release(g.flow)
	if got := s.retryAfter(g); got != "10" {
		t.Errorf("Retry-After at width 1 of 4 = %q, want %q", got, "10")
	}
}
