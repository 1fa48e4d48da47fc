package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"skiptrie/internal/server"
	"skiptrie/internal/wire"
	"skiptrie/internal/workload"
)

const (
	// wireKeys sequential IDs 1..wireKeys are loaded, as an
	// auto-increment client would write them.
	wireKeys = 1 << 15
	// loadWindow is the setup's pipelined SET window on its one
	// connection; it is wide enough for the server to batch the SETs.
	loadWindow = 64
	// runWindow is each run connection's pipelined request window.
	runWindow = 16
	// scanLimit is the entry limit of every SCAN.
	scanLimit = 16
	// settleQuiet is how long the balancer must issue no split or merge
	// before setup counts as finished: ten of its default 50ms ticks.
	settleQuiet = 500 * time.Millisecond
	settlePoll  = 10 * time.Millisecond
	// settleMax bounds the wait for a balancer that never goes quiet,
	// so the run still ends in time; setup then runs to the last split
	// or merge seen.
	settleMax = 30 * time.Second
)

var (
	wireNS    = []byte("bench")
	wireSizes = workload.ValSizer{Min: 16, Max: 128}
)

// wireSeq is the full request path: an in-process server with the
// skiptried defaults on a loopback listener, loaded with sequential IDs
// in shuffled order, then driven over two connections by closed loops
// of pipelined windows: 70% GET, 25% overwriting SET, 5% SCAN.
type wireSeq struct {
	seed  uint64
	order []uint64 // load order of the IDs 1..wireKeys
	sizes []int    // value size of each loaded ID, by load position

	srv    *server.Server
	served chan error
	addr   string
	conns  connStats
	sets   atomic.Uint64
	load   time.Duration
}

func newWireSeq(seed uint64) *wireSeq {
	rng := rand.New(rand.NewSource(int64(seed)))
	b := &wireSeq{seed: seed, order: make([]uint64, wireKeys), sizes: make([]int, wireKeys)}
	for i, p := range rng.Perm(wireKeys) {
		b.order[i] = uint64(p) + 1
		b.sizes[i] = wireSizes.Next(rng)
	}
	return b
}

// setup starts the server, loads every ID over one pipelined connection
// and waits for the balancer to settle. The returned time runs to the
// later of the last acknowledgement and the last split or merge seen;
// the quiet period that confirms the balancer is done is not counted.
func (b *wireSeq) setup(traced bool) (time.Duration, error) {
	start := time.Now()
	b.srv = server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	b.addr = ln.Addr().String()
	b.served = make(chan error, 1)
	go pprof.Do(context.Background(), pprof.Labels("role", "server"), func(context.Context) {
		b.served <- b.srv.Serve(ln)
	})
	b.sets.Store(0)
	if err := b.loadAll(traced); err != nil {
		return 0, err
	}
	loaded := time.Now()
	b.load = loaded.Sub(start)

	last, prev := loaded, b.reshardEvents()
	for quietSince := loaded; time.Since(quietSince) < settleQuiet && time.Since(loaded) < settleMax; {
		time.Sleep(settlePoll)
		if ev := b.reshardEvents(); ev != prev {
			prev, last, quietSince = ev, time.Now(), time.Now()
		}
	}
	r := b.srv.NamespaceMetrics(string(wireNS)).Snapshot().Reshard
	fmt.Printf("settled: load_s=%.3f setup_s=%.3f shards=%d splits=%d merges=%d moved=%d skew=%.2f\n",
		b.load.Seconds(), last.Sub(start).Seconds(), b.srv.NamespaceShards(string(wireNS)), r.Splits, r.Merges, r.MovedKeys, r.Skew)
	return last.Sub(start), nil
}

func (b *wireSeq) loadAll(traced bool) error {
	cl, err := b.dial(traced)
	if err != nil {
		return err
	}
	defer cl.Close()
	var val [128]byte
	var resp wire.Response
	for i := 0; i < len(b.order); i += loadWindow {
		j := min(i+loadWindow, len(b.order))
		var first uint32
		for k := i; k < j; k++ {
			seq := cl.NextSeq()
			if k == i {
				first = seq
			}
			id := b.order[k]
			v := val[:b.sizes[k]]
			wireSizes.Fill(v, id)
			if err := cl.Send(&wire.Request{Seq: seq, Op: wire.OpSet, NS: wireNS, Key: id, Val: v}); err != nil {
				return fmt.Errorf("load: %w", err)
			}
		}
		b.sets.Add(uint64(j - i))
		if err := cl.Flush(); err != nil {
			return fmt.Errorf("load: %w", err)
		}
		for k := i; k < j; k++ {
			if err := cl.Recv(&resp); err != nil {
				return fmt.Errorf("load: %w", err)
			}
			if resp.Status != wire.StatusOK || resp.Seq-first >= uint32(j-i) {
				return fmt.Errorf("load: SET seq %d answered %s (seq %d)", first+uint32(k-i), resp.Status, resp.Seq)
			}
		}
	}
	return nil
}

func (b *wireSeq) reshardEvents() uint64 {
	r := b.srv.NamespaceMetrics(string(wireNS)).Snapshot().Reshard
	return r.Splits + r.Merges
}

// dial connects a client; traced runs count its socket calls.
func (b *wireSeq) dial(traced bool) (*wire.Client, error) {
	nc, err := net.DialTimeout("tcp", b.addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if traced {
		nc = &countingConn{Conn: nc, s: &b.conns}
	}
	return wire.NewClient(nc), nil
}

func (b *wireSeq) run(window time.Duration, tallies []*tally, traced bool) {
	clients := make([]*wire.Client, len(tallies))
	for w := range clients {
		cl, err := b.dial(traced)
		if err != nil {
			tallies[w].ops++
			tallies[w].fail("dial: %v", err)
			continue
		}
		clients[w] = cl
		defer cl.Close()
	}
	runClients(window, tallies, func(w int, t *tally, deadline time.Time) {
		if clients[w] != nil {
			b.drive(clients[w], int64(b.seed)*workers+int64(w), t, deadline, traced)
		}
	})
}

// wireReq is one request of a window and what its answer must be.
type wireReq struct {
	op  wire.Op
	key uint64
}

// drive runs one connection's closed loop: send a window of requests,
// flush, then read every response before the next window. A request's
// latency runs from the start of its window to its response.
func (b *wireSeq) drive(cl *wire.Client, seed int64, t *tally, deadline time.Time, traced bool) {
	rng := rand.New(rand.NewSource(seed))
	var reqs [runWindow]wireReq
	var done [runWindow]bool
	var val [128]byte
	var want [128]byte
	var resp wire.Response
	for {
		t0 := time.Now()
		if !t0.Before(deadline) {
			return
		}
		var first uint32
		for i := range reqs {
			seq := cl.NextSeq()
			if i == 0 {
				first = seq
			}
			r := wire.Request{Seq: seq, NS: wireNS, Key: 1 + uint64(rng.Intn(wireKeys))}
			switch p := rng.Intn(100); {
			case p < 70:
				r.Op = wire.OpGet
			case p < 95:
				r.Op = wire.OpSet
				r.Val = val[:wireSizes.Next(rng)]
				wireSizes.Fill(r.Val, r.Key)
			default:
				r.Op, r.Limit = wire.OpScan, scanLimit
			}
			reqs[i], done[i] = wireReq{r.Op, r.Key}, false
			if err := cl.Send(&r); err != nil {
				t.ops += uint64(i + 1)
				t.failed += uint64(i)
				t.fail("send: %v", err)
				return
			}
			if r.Op == wire.OpSet {
				b.sets.Add(1)
			}
		}
		t.ops += runWindow
		if err := cl.Flush(); err != nil {
			t.failed += runWindow - 1
			t.fail("flush: %v", err)
			return
		}
		t1 := time.Now()
		for n := 0; n < runWindow; n++ {
			if err := cl.Recv(&resp); err != nil {
				t.failed += uint64(runWindow - n - 1)
				t.fail("recv: %v", err)
				return
			}
			d := time.Since(t0)
			i := int(resp.Seq - first)
			if i < 0 || i >= runWindow || done[i] {
				t.fail("response seq %d outside window [%d, %d)", resp.Seq, first, first+runWindow)
				continue
			}
			done[i] = true
			q := reqs[i]
			switch q.op {
			case wire.OpGet:
				t.record(read, d)
			case wire.OpSet:
				t.record(write, d)
			default:
				t.record(search, d)
			}
			if err := checkResp(&resp, q, want[:]); err != nil {
				t.fail("%v", err)
			}
		}
		if traced {
			t.sendNs += uint64(t1.Sub(t0))
			t.recvNs += uint64(time.Since(t1))
			t.windows++
		}
	}
}

// checkResp checks one response against the loaded state: every ID
// 1..wireKeys is resident with a value in the ValSizer pattern, so a
// GET must find it and a SCAN from k must return k, k+1, ... in order.
func checkResp(resp *wire.Response, q wireReq, scratch []byte) error {
	if resp.Op != q.op || resp.Status != wire.StatusOK {
		return fmt.Errorf("%s %d answered %s %s: %s", q.op, q.key, resp.Op, resp.Status, resp.Val)
	}
	switch q.op {
	case wire.OpGet:
		return checkVal(q.key, resp.Val, scratch)
	case wire.OpScan:
		want := min(scanLimit, wireKeys-int(q.key)+1)
		if len(resp.Entries) != want {
			return fmt.Errorf("SCAN %d returned %d entries, want %d", q.key, len(resp.Entries), want)
		}
		for i, e := range resp.Entries {
			if e.Key != q.key+uint64(i) {
				return fmt.Errorf("SCAN %d entry %d has key %d", q.key, i, e.Key)
			}
			if err := checkVal(e.Key, e.Val, scratch); err != nil {
				return err
			}
		}
	}
	return nil
}

func checkVal(key uint64, val, scratch []byte) error {
	if len(val) < wireSizes.Min || len(val) > wireSizes.Max {
		return fmt.Errorf("key %d: value of %d bytes", key, len(val))
	}
	want := scratch[:len(val)]
	wireSizes.Fill(want, key)
	if !bytes.Equal(val, want) {
		return fmt.Errorf("key %d: value differs from its fill pattern", key)
	}
	return nil
}

func (b *wireSeq) teardown() {
	if b.srv == nil {
		return
	}
	b.srv.Close()
	<-b.served
	b.srv = nil
}

func (b *wireSeq) residentKeys() int        { return wireKeys }
func (b *wireSeq) setupLoad() time.Duration { return b.load }

func (b *wireSeq) counters() counters {
	return counters{
		metrics: b.srv.NamespaceMetrics(string(wireNS)).Snapshot(),
		shards:  b.srv.NamespaceShards(string(wireNS)),
		srv:     b.srv.Stats(),
		conn:    b.conns.snapshot(),
		sets:    b.sets.Load(),
	}
}

func (b *wireSeq) reconcile(ops uint64, before, after counters) error {
	if d := after.srv.Frames - before.srv.Frames; d != ops {
		return fmt.Errorf("benchmark sent %d requests, server decoded %d frames", ops, d)
	}
	return nil
}

// connStats counts the client side's socket calls across connections.
type connStats struct {
	writes, reads, bytesOut, bytesIn atomic.Uint64
}

type connCounts struct {
	writes, reads, bytesOut, bytesIn uint64
}

func (s *connStats) snapshot() connCounts {
	return connCounts{s.writes.Load(), s.reads.Load(), s.bytesOut.Load(), s.bytesIn.Load()}
}

func (c connCounts) sub(o connCounts) connCounts {
	return connCounts{c.writes - o.writes, c.reads - o.reads, c.bytesOut - o.bytesOut, c.bytesIn - o.bytesIn}
}

// countingConn counts the calls a wire.Client makes on its socket.
type countingConn struct {
	net.Conn
	s *connStats
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.s.writes.Add(1)
	c.s.bytesOut.Add(uint64(n))
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.s.reads.Add(1)
	c.s.bytesIn.Add(uint64(n))
	return n, err
}
