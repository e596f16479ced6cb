package worker

import (
	"errors"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestPolicySettle maps sequences of leg outcomes to the policy's actions,
// with no HTTP and no sleeps: the backoff draw is a stand-in that returns
// retry k's pause as k milliseconds and logs which retries were drawn.
func TestPolicySettle(t *testing.T) {
	boom := errors.New("boom")
	fail := func(w int) outcome { return outcome{kind: failed, err: boom, worker: w} }
	shedFor := func(w int, after time.Duration) outcome {
		return outcome{kind: shed, err: errors.New("503"), after: after, worker: w}
	}
	type step struct {
		o           outcome
		outstanding int
		want        verdict
		pause       time.Duration
		failed      []int // the failed set afterwards
	}
	many := func(n int, s step) []step { return slices.Repeat([]step{s}, n) }
	for _, tc := range []struct {
		name    string
		retries int
		steps   []step
		draws   []int  // backoff draws, in order
		spent   int    // attempts charged to the retry budget at the end
		errHas  string // the give-up error, when the last step gives up
	}{
		{
			name:    "success finishes",
			retries: 2,
			steps:   []step{{o: outcome{kind: succeeded}, want: finish}},
		},
		{
			name:    "rejection gives up at once without spending a retry",
			retries: 2,
			steps:   []step{{o: outcome{kind: rejected, err: errors.New("404"), worker: 1}, want: giveUp}},
			errHas:  "rejected: 404",
		},
		{
			name:    "rejection does not wait for the hedge leg",
			retries: 2,
			steps:   []step{{o: outcome{kind: rejected, err: errors.New("404")}, outstanding: 1, want: giveUp}},
			errHas:  "rejected",
		},
		{
			name:    "a failed leg waits for the other leg",
			retries: 2,
			steps: []step{
				{o: fail(0), outstanding: 1, want: await, failed: []int{0}},
				{o: outcome{kind: succeeded, worker: 1}, want: finish, failed: []int{0}},
			},
		},
		{
			name:    "shed is waited out for its Retry-After without spending a retry",
			retries: 0,
			steps:   []step{{o: shedFor(0, 5*time.Millisecond), want: retry, pause: 5 * time.Millisecond, failed: []int{0}}},
			draws:   []int{1},
		},
		{
			name:    "shed waits at least one base backoff",
			retries: 0,
			steps:   []step{{o: shedFor(0, 0), want: retry, pause: time.Millisecond, failed: []int{0}}},
			draws:   []int{1},
		},
		{
			name:    "shed waits at most maxShedPause",
			retries: 0,
			steps:   []step{{o: shedFor(0, time.Hour), want: retry, pause: maxShedPause, failed: []int{0}}},
			draws:   []int{1},
		},
		{
			name:    "the 17th shed counts as a failure",
			retries: 0,
			steps: append(many(maxShedWaits, step{o: shedFor(0, 0), want: retry, pause: time.Millisecond, failed: []int{0}}),
				step{o: shedFor(0, 0), want: giveUp, failed: []int{0}}),
			draws:  slices.Repeat([]int{1}, maxShedWaits),
			spent:  1,
			errHas: "failed after 1 attempts: 503",
		},
		{
			name:    "the 17th shed spends a retry and backs off",
			retries: 1,
			steps: append(many(maxShedWaits, step{o: shedFor(0, 0), want: retry, pause: time.Millisecond, failed: []int{0}}),
				step{o: shedFor(0, 0), want: retry, pause: time.Millisecond, failed: []int{0}}),
			draws: slices.Repeat([]int{1}, maxShedWaits+1),
			spent: 1,
		},
		{
			name:    "transient failures give up after 1+Retries attempts",
			retries: 2,
			steps: []step{
				{o: fail(0), want: retry, pause: 1 * time.Millisecond, failed: []int{0}},
				{o: fail(1), want: retry, pause: 2 * time.Millisecond, failed: []int{0, 1}},
				{o: fail(0), want: giveUp, failed: []int{0, 1}},
			},
			draws:  []int{1, 2},
			spent:  3,
			errHas: "failed after 3 attempts: boom",
		},
		{
			name:    "the failed set clears once every worker has failed this chunk",
			retries: 5,
			steps: []step{
				{o: fail(0), want: retry, pause: 1 * time.Millisecond, failed: []int{0}},
				{o: fail(1), want: retry, pause: 2 * time.Millisecond, failed: []int{0, 1}},
				{o: fail(2), want: retry, pause: 3 * time.Millisecond, failed: nil},
				{o: fail(2), want: retry, pause: 4 * time.Millisecond, failed: []int{2}},
			},
			draws: []int{1, 2, 3, 4},
			spent: 4,
		},
		{
			name:    "both legs of a hedged attempt join the failed set and spend one retry",
			retries: 2,
			steps: []step{
				{o: fail(0), outstanding: 1, want: await, failed: []int{0}},
				{o: fail(1), want: retry, pause: time.Millisecond, failed: []int{0, 1}},
			},
			draws: []int{1},
			spent: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var draws []int
			c := &chunk{size: 4, retries: tc.retries, workers: 3, failed: make(map[int]bool),
				backoff: func(k int) time.Duration {
					draws = append(draws, k)
					return time.Duration(k) * time.Millisecond
				}}
			var err error
			for i, s := range tc.steps {
				var v verdict
				var pause time.Duration
				v, pause, err = c.settle(s.o, s.outstanding)
				if v != s.want || pause != s.pause {
					t.Fatalf("step %d: settle = (%d, %v), want (%d, %v)", i, v, pause, s.want, s.pause)
				}
				if got := slices.Sorted(maps.Keys(c.failed)); !slices.Equal(got, s.failed) {
					t.Fatalf("step %d: failed set %v, want %v", i, got, s.failed)
				}
				if (err != nil) != (v == giveUp) {
					t.Fatalf("step %d: verdict %d with error %v", i, v, err)
				}
			}
			if !slices.Equal(draws, tc.draws) {
				t.Errorf("backoff draws %v, want %v", draws, tc.draws)
			}
			if c.spent != tc.spent {
				t.Errorf("spent %d retries, want %d", c.spent, tc.spent)
			}
			if tc.errHas != "" && (err == nil || !strings.Contains(err.Error(), tc.errHas)) {
				t.Errorf("give-up error %v, want one containing %q", err, tc.errHas)
			}
		})
	}
}

// TestHedgeAvoid: a hedge leg avoids the primary and every worker that
// failed the chunk, and never the primary's only alternatives.
func TestHedgeAvoid(t *testing.T) {
	c := &chunk{workers: 3, failed: map[int]bool{2: true}}
	if got := slices.Sorted(maps.Keys(c.hedgeAvoid(0))); !slices.Equal(got, []int{0, 2}) {
		t.Fatalf("hedge avoid set %v, want [0 2]", got)
	}
	c.failed[1] = true
	if got := slices.Sorted(maps.Keys(c.hedgeAvoid(0))); !slices.Equal(got, []int{0}) {
		t.Fatalf("hedge avoid set over a fully failed fleet %v, want the primary alone", got)
	}
}
