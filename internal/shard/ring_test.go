package shard

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("s%06d", i)
	}
	return out
}

func TestOwnerDeterministicAndMember(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:2", "http://c:3"}
	r1 := New(nodes, 0)
	r2 := New([]string{"http://c:3", "http://a:1", "http://b:2", "http://a:1"}, 0) // order+dup insensitive
	for _, k := range keys(500) {
		o1, o2 := r1.Owner(k), r2.Owner(k)
		if o1 != o2 {
			t.Fatalf("owner(%q) differs across equivalent rings: %q vs %q", k, o1, o2)
		}
		if !r1.Has(o1) {
			t.Fatalf("owner(%q) = %q not a ring member", k, o1)
		}
	}
}

func TestEmptyRing(t *testing.T) {
	r := New(nil, 0)
	if got := r.Owner("s000001"); got != "" {
		t.Fatalf("empty ring Owner = %q, want \"\"", got)
	}
	if r.Len() != 0 {
		t.Fatalf("empty ring Len = %d", r.Len())
	}
}

// TestRebalanceProperty asserts the consistent-hashing contract exactly,
// not just the ≤ K/N bound from the issue:
//   - leave: only keys owned by the departed node move, and every one of
//     them moves (their owner is gone);
//   - join: the only keys that move are those the new node steals.
func TestRebalanceProperty(t *testing.T) {
	nodes := []string{"http://r1:18080", "http://r2:18081", "http://r3:18082", "http://r4:18083"}
	ks := keys(2000)
	full := New(nodes, 0)

	t.Run("leave", func(t *testing.T) {
		before := make(map[string]string, len(ks))
		for _, k := range ks {
			before[k] = full.Owner(k)
		}
		departed := nodes[1]
		after := full.Without(departed)
		moved := 0
		for _, k := range ks {
			na := after.Owner(k)
			if before[k] == departed {
				moved++
				if na == departed {
					t.Fatalf("key %q still owned by departed node", k)
				}
				continue
			}
			if na != before[k] {
				t.Fatalf("key %q moved %q -> %q but its owner did not leave", k, before[k], na)
			}
		}
		// ≤ K/N within vnode variance: the departed node's share.
		share := float64(moved) / float64(len(ks))
		if share > 1.6/float64(len(nodes)) {
			t.Fatalf("leave moved %.1f%% of keys, expected ≈ %.1f%%", 100*share, 100.0/float64(len(nodes)))
		}
		if moved == 0 {
			t.Fatal("leave moved zero keys — ring not exercising the departed node")
		}
	})

	t.Run("join", func(t *testing.T) {
		joined := "http://r5:18084"
		after := full.With(joined)
		moved := 0
		for _, k := range ks {
			ob, oa := full.Owner(k), after.Owner(k)
			if ob == oa {
				continue
			}
			if oa != joined {
				t.Fatalf("key %q moved %q -> %q on join of %q", k, ob, oa, joined)
			}
			moved++
		}
		share := float64(moved) / float64(len(ks))
		if share > 1.6/float64(len(nodes)+1) {
			t.Fatalf("join moved %.1f%% of keys, expected ≈ %.1f%%", 100*share, 100.0/float64(len(nodes)+1))
		}
		if moved == 0 {
			t.Fatal("join moved zero keys to the new node")
		}
	})
}

func TestOwnerExcludingFailover(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:2", "http://c:3"}
	r := New(nodes, 0)
	down := map[string]bool{}
	for _, k := range keys(300) {
		if r.OwnerExcluding(k, down) != r.Owner(k) {
			t.Fatalf("no-down OwnerExcluding differs from Owner for %q", k)
		}
	}
	dead := r.Owner("s000042")
	down[dead] = true
	fo := r.OwnerExcluding("s000042", down)
	if fo == dead || fo == "" || !r.Has(fo) {
		t.Fatalf("failover owner %q invalid (dead=%q)", fo, dead)
	}
	// Failover must agree with the derived ring every replica would build.
	if want := r.Without(dead).Owner("s000042"); fo != want {
		t.Fatalf("OwnerExcluding = %q, Without().Owner = %q", fo, want)
	}
	// All nodes down: no owner.
	for _, n := range nodes {
		down[n] = true
	}
	if got := r.OwnerExcluding("s000042", down); got != "" {
		t.Fatalf("all-down OwnerExcluding = %q, want \"\"", got)
	}
}

func TestOwnershipCounts(t *testing.T) {
	r := New([]string{"http://a:1", "http://b:2", "http://c:3"}, 0)
	ks := keys(900)
	counts := map[string]int{}
	for _, k := range ks {
		o := r.Owner(k)
		if !r.Has(o) {
			t.Fatalf("key %q owned by non-member %q", k, o)
		}
		counts[o]++
	}
	for _, n := range r.Nodes() {
		if counts[n] == 0 {
			t.Fatalf("node %q owns zero of %d keys — vnode spread broken", n, len(ks))
		}
	}
}
