package backend

import (
	"context"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"hornet/internal/sim"
)

// exchangeResult is what one Exchange call returned.
type exchangeResult struct {
	payloads [][]byte
	err      error
}

// arrive makes one Exchange call on its own goroutine.
func arrive(ctx context.Context, g *ShardGroup, epoch, member int, payload string) <-chan exchangeResult {
	ch := make(chan exchangeResult, 1)
	go func() {
		p, err := g.Exchange(ctx, epoch, member, []byte(payload))
		ch <- exchangeResult{p, err}
	}()
	return ch
}

// waitArrived blocks until n members wait in the group's current round.
func waitArrived(t *testing.T, g *ShardGroup, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		g.mu.Lock()
		got := g.arrived
		g.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d members arrived, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// result waits for one call's answer.
func result(t *testing.T, ch <-chan exchangeResult) exchangeResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("Exchange did not return")
		return exchangeResult{}
	}
}

// restartOf unwraps a rollback notice, failing the test on anything else.
func restartOf(t *testing.T, r exchangeResult) *sim.ShardRestartError {
	t.Helper()
	var rs *sim.ShardRestartError
	if !errors.As(r.err, &rs) || r.payloads != nil {
		t.Fatalf("Exchange = (%q, %v), want a rollback notice", r.payloads, r.err)
	}
	return rs
}

// TestShardGroupMemberOrder: every member gets all payloads in member
// order whatever order they arrived in, round after round.
func TestShardGroupMemberOrder(t *testing.T) {
	ctx := context.Background()
	g := NewShardGroup(3)
	want := [][]byte{[]byte("p0"), []byte("p1"), []byte("p2")}
	for _, order := range [][]int{{2, 0, 1}, {1, 2, 0}, {0, 1, 2}} {
		chans := make([]<-chan exchangeResult, 3)
		for n, m := range order {
			chans[m] = arrive(ctx, g, 0, m, "p"+strconv.Itoa(m))
			if n < 2 {
				waitArrived(t, g, n+1)
			}
		}
		for m, ch := range chans {
			if r := result(t, ch); r.err != nil || !reflect.DeepEqual(r.payloads, want) {
				t.Fatalf("arrival order %v: member %d got (%q, %v), want %q", order, m, r.payloads, r.err, want)
			}
		}
	}
}

// TestShardGroupDuplicateArrival: a member arriving twice in one round is
// an error, and the round still completes with its first payload.
func TestShardGroupDuplicateArrival(t *testing.T) {
	ctx := context.Background()
	g := NewShardGroup(2)
	first := arrive(ctx, g, 0, 0, "a")
	waitArrived(t, g, 1)
	if _, err := g.Exchange(ctx, 0, 0, []byte("b")); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("second arrival of member 0: err = %v, want a duplicate-arrival error", err)
	}
	if _, err := g.Exchange(ctx, 0, 2, []byte("c")); err == nil {
		t.Fatal("member 2 of a 2-member group was accepted")
	}
	r1 := result(t, arrive(ctx, g, 0, 1, "z"))
	r0 := result(t, first)
	want := [][]byte{[]byte("a"), []byte("z")}
	if !reflect.DeepEqual(r0.payloads, want) || !reflect.DeepEqual(r1.payloads, want) {
		t.Fatalf("round payloads %q / %q, want %q", r0.payloads, r1.payloads, want)
	}
}

// TestShardGroupMemberLost: MemberLost hands every waiting member a notice
// with the next epoch, the stable cycle and its own stable blob; a call
// from the old epoch gets the notice at once; the new epoch's round then
// runs.
func TestShardGroupMemberLost(t *testing.T) {
	ctx := context.Background()
	g := NewShardGroup(3)
	for m := 0; m < 3; m++ {
		g.Stage(m, "k"+strconv.Itoa(m), 500, []byte{byte(m)})
	}
	waiting := []<-chan exchangeResult{arrive(ctx, g, 0, 0, "x"), arrive(ctx, g, 0, 1, "y")}
	waitArrived(t, g, 2)
	g.MemberLost()
	for m, ch := range waiting {
		rs := restartOf(t, result(t, ch))
		if rs.Epoch != 1 || rs.Cycle != 500 || !reflect.DeepEqual(rs.Blob, []byte{byte(m)}) {
			t.Errorf("member %d notice = %+v, want epoch 1, cycle 500, blob [%d]", m, rs, m)
		}
	}
	// Member 2 never arrived in the torn-down round: its stale call is
	// answered at once.
	rs := restartOf(t, result(t, arrive(ctx, g, 0, 2, "z")))
	if rs.Epoch != 1 || rs.Cycle != 500 || !reflect.DeepEqual(rs.Blob, []byte{2}) {
		t.Errorf("stale-epoch notice = %+v, want epoch 1, cycle 500, blob [2]", rs)
	}
	var chans []<-chan exchangeResult
	for m := 0; m < 3; m++ {
		chans = append(chans, arrive(ctx, g, 1, m, "e1"))
	}
	for m, ch := range chans {
		if r := result(t, ch); r.err != nil || len(r.payloads) != 3 {
			t.Fatalf("member %d in epoch 1: (%q, %v)", m, r.payloads, r.err)
		}
	}
}

// TestShardGroupMemberLostWithoutStableSet: before any promotion a
// rollback restarts from cycle 0 with no blob.
func TestShardGroupMemberLostWithoutStableSet(t *testing.T) {
	g := NewShardGroup(2)
	g.Stage(0, "k0", 100, []byte{1}) // a partial set is no restart point
	g.MemberLost()
	rs := restartOf(t, result(t, arrive(context.Background(), g, 0, 1, "x")))
	if rs.Epoch != 1 || rs.Cycle != 0 || rs.Blob != nil {
		t.Fatalf("notice = %+v, want epoch 1, cycle 0, no blob", rs)
	}
}

// TestShardGroupCancel: a cancelled ctx releases its waiter and withdraws
// its arrival; Cancel releases every waiter and fails every later call.
func TestShardGroupCancel(t *testing.T) {
	g := NewShardGroup(2)
	ctx, cancel := context.WithCancel(context.Background())
	ch := arrive(ctx, g, 0, 0, "a")
	waitArrived(t, g, 1)
	cancel()
	if r := result(t, ch); !errors.Is(r.err, context.Canceled) {
		t.Fatalf("waiter with a cancelled ctx: err = %v, want context.Canceled", r.err)
	}
	waitArrived(t, g, 0)

	boom := errors.New("group doomed")
	ch = arrive(context.Background(), g, 0, 0, "again") // not a duplicate: the first arrival was withdrawn
	waitArrived(t, g, 1)
	g.Cancel(boom)
	if r := result(t, ch); !errors.Is(r.err, boom) {
		t.Fatalf("waiter of a cancelled group: err = %v, want %v", r.err, boom)
	}
	if _, err := g.Exchange(context.Background(), 0, 1, []byte("late")); !errors.Is(err, boom) {
		t.Fatalf("call after Cancel: err = %v, want %v", err, boom)
	}
	g.MemberLost() // a cancelled group stays cancelled
	if _, err := g.Exchange(context.Background(), 1, 1, []byte("late")); !errors.Is(err, boom) {
		t.Fatalf("call after Cancel and MemberLost: err = %v, want %v", err, boom)
	}
}

// TestShardGroupStage: only a complete set is promoted, and the stable
// point never moves backwards.
func TestShardGroupStage(t *testing.T) {
	g := NewShardGroup(2)
	if g.Stage(0, "a0", 200, []byte{1}) {
		t.Fatal("half a set was promoted")
	}
	if _, _, ok := g.StableSet(); ok {
		t.Fatal("stable set exists before a complete one was staged")
	}
	if !g.Stage(1, "a1", 200, []byte{2}) {
		t.Fatal("the completing upload did not promote")
	}
	if g.Stage(0, "b0", 100, []byte{3}) || g.Stage(1, "b1", 100, []byte{4}) {
		t.Fatal("an older complete set was promoted over the stable one")
	}
	if g.Stage(0, "c0", 300, []byte{5}) {
		t.Fatal("half a newer set was promoted")
	}
	cycle, set, ok := g.StableSet()
	if !ok || cycle != 200 || len(set) != 2 || set[0].Key != "a0" || set[1].Key != "a1" {
		t.Fatalf("stable set = %d %+v %v, want cycle 200 with a0, a1", cycle, set, ok)
	}
	if key, blob, ok := g.StableBlob(1); !ok || key != "a1" || blob.Cycle != 200 || !reflect.DeepEqual(blob.Data, []byte{2}) {
		t.Fatalf("StableBlob(1) = %q %+v %v", key, blob, ok)
	}
}
