package grid

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"
)

type mapStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMapStore() *mapStore { return &mapStore{m: map[string][]byte{}} }

func (s *mapStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[key]
	return b, ok
}

func (s *mapStore) Put(key string, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), body...)
}

// serveNode binds a store to a fresh node and serves its peer protocol
// on a loopback listener. Returns the node, its URL, and a teardown.
func serveNode(t *testing.T, cfg NodeConfig, store Store) (*Node, string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	if cfg.Self == "" {
		cfg.Self = url
	}
	n := NewNode(cfg)
	n.Bind(store)
	hs := &http.Server{Handler: n.Handler()}
	done := make(chan struct{})
	go func() { defer close(done); _ = hs.Serve(ln) }()
	return n, url, func() {
		_ = hs.Close()
		<-done
		n.Close()
	}
}

func TestNodeFillGrantAndReadThrough(t *testing.T) {
	store := newMapStore()
	owner, ownerURL, stop := serveNode(t, NodeConfig{}, store)
	defer stop()

	req := NewNode(NodeConfig{Self: "http://requester", Peers: []string{ownerURL}, ProbeInterval: time.Hour})
	defer req.Close()

	ctx := context.Background()
	key := "solve|abc|m=3"
	if body, found := req.Fetch(ctx, ownerURL, key); found {
		t.Fatalf("cold fetch found %q", body)
	}
	if got := owner.Snapshot().FillsGranted; got != 1 {
		t.Fatalf("fills granted = %d, want 1", got)
	}

	want := []byte(`{"cost":42}`)
	req.FillBack(ownerURL, key, want)
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := req.WaitFillBacks(wctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get(key); !ok {
		t.Fatal("WaitFillBacks returned before the fill-back landed")
	}

	body, found := req.Fetch(ctx, ownerURL, key)
	if !found || !bytes.Equal(body, want) {
		t.Fatalf("warm fetch: found=%v body=%q", found, body)
	}
	snap := req.Snapshot()
	if snap.PeerHits != 1 || snap.PeerMisses != 1 || snap.FillBacksSent != 1 {
		t.Fatalf("requester counters %+v", snap)
	}
}

// TestNodeFlightBlocksSecondFetcher: while one replica holds the fill
// claim, a second fetcher for the same key blocks on the open flight
// and is served the body the moment the fill-back lands — one solve,
// two consumers.
func TestNodeFlightBlocksSecondFetcher(t *testing.T) {
	store := newMapStore()
	owner, ownerURL, stop := serveNode(t, NodeConfig{}, store)
	defer stop()

	r1 := NewNode(NodeConfig{Self: "http://r1", Peers: []string{ownerURL}, ProbeInterval: time.Hour})
	defer r1.Close()
	r2 := NewNode(NodeConfig{Self: "http://r2", Peers: []string{ownerURL}, ProbeInterval: time.Hour, FetchWait: 10 * time.Second})
	defer r2.Close()

	ctx := context.Background()
	key := "solve|flight|m=3"
	if _, found := r1.Fetch(ctx, ownerURL, key); found {
		t.Fatal("cold fetch found")
	}

	type fetched struct {
		body  []byte
		found bool
	}
	got := make(chan fetched, 1)
	go func() {
		b, ok := r2.Fetch(ctx, ownerURL, key)
		got <- fetched{b, ok}
	}()
	select {
	case f := <-got:
		t.Fatalf("second fetch returned early: %+v", f)
	case <-time.After(150 * time.Millisecond):
	}
	waitFor(t, "flight wait to register", func() bool { return owner.Snapshot().FlightWaits == 1 })

	want := []byte(`{"cost":7}`)
	r1.FillBack(ownerURL, key, want)
	select {
	case f := <-got:
		if !f.found || !bytes.Equal(f.body, want) {
			t.Fatalf("blocked fetch got found=%v body=%q", f.found, f.body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked fetch never unblocked after fill-back")
	}
}

// TestNodeExpiredFlightRegrants: a fill claim whose holder never comes
// back lapses after FlightTTL; the next fetcher gets a fresh claim.
func TestNodeExpiredFlightRegrants(t *testing.T) {
	store := newMapStore()
	owner, ownerURL, stop := serveNode(t, NodeConfig{FlightTTL: 30 * time.Millisecond}, store)
	defer stop()

	req := NewNode(NodeConfig{Self: "http://r", Peers: []string{ownerURL}, ProbeInterval: time.Hour})
	defer req.Close()

	ctx := context.Background()
	key := "solve|zombie|m=3"
	if _, found := req.Fetch(ctx, ownerURL, key); found {
		t.Fatal("cold fetch found")
	}
	time.Sleep(60 * time.Millisecond)
	if _, found := req.Fetch(ctx, ownerURL, key); found {
		t.Fatal("post-expiry fetch found")
	}
	if got := owner.Snapshot().FillsGranted; got != 2 {
		t.Fatalf("fills granted = %d, want regrant after TTL", got)
	}
}

// TestNodeOwnerDownReowns: a failed fetch marks the owner down and the
// ring immediately re-owns its key range onto the survivors.
func TestNodeOwnerDownReowns(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()

	n := NewNode(NodeConfig{Self: "http://self", Peers: []string{deadURL}, ProbeInterval: time.Hour})
	defer n.Close()
	if len(n.Members()) != 2 {
		t.Fatalf("members = %v", n.Members())
	}

	if _, found := n.Fetch(context.Background(), deadURL, "k"); found {
		t.Fatal("fetch from dead peer found")
	}
	members := n.Members()
	if len(members) != 1 || members[0] != "http://self" {
		t.Fatalf("after failure members = %v, want only self", members)
	}
	if n.Owner("any-key") != "http://self" {
		t.Fatal("self must own the whole ring with the peer down")
	}
	snap := n.Snapshot()
	if snap.FetchErrors != 1 || len(snap.PeersDown) != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
}

// TestNodeProbeRecovery: a down peer that answers pings again rejoins
// the ring automatically.
func TestNodeProbeRecovery(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	peerURL := "http://" + addr
	ln.Close()

	n := NewNode(NodeConfig{Self: "http://self", Peers: []string{peerURL}, ProbeInterval: 20 * time.Millisecond})
	defer n.Close()
	if _, found := n.Fetch(context.Background(), peerURL, "k"); found {
		t.Fatal("dead fetch found")
	}
	if len(n.Members()) != 1 {
		t.Fatal("peer not marked down")
	}

	// Resurrect the peer on the same address.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	peerNode := NewNode(NodeConfig{Self: peerURL, ProbeInterval: time.Hour})
	peerNode.Bind(newMapStore())
	defer peerNode.Close()
	hs := &http.Server{Handler: peerNode.Handler()}
	done := make(chan struct{})
	go func() { defer close(done); _ = hs.Serve(ln2) }()
	defer func() { _ = hs.Close(); <-done }()

	waitFor(t, "probe to restore the peer", func() bool { return len(n.Members()) == 2 })
}

func TestNodeGetUnboundIsUnavailable(t *testing.T) {
	_, url, stop := serveNode(t, NodeConfig{}, nil)
	defer stop()
	req := NewNode(NodeConfig{Self: "http://r", Peers: []string{url}, ProbeInterval: time.Hour})
	defer req.Close()
	if _, found := req.Fetch(context.Background(), url, "k"); found {
		t.Fatal("unbound node served a body")
	}
	// The 503 counts as a fetch error and (conservatively) marks the
	// peer down; the prober will restore it once it can serve.
	if req.Snapshot().FetchErrors != 1 {
		t.Fatalf("snapshot %+v", req.Snapshot())
	}
}
