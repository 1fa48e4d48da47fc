package main

import (
	"slices"
	"testing"
)

const tracesText = `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      role:  client
      20ms   skiptrie/internal/dcss.(*Atom[go.shape.struct { Next *skiptrie/internal/skiplist.Node; Marked bool }]).Load (inline)
             skiptrie/internal/skiplist.(*Topology).search
             main.(*mapChurn).run.func1
-----------+-------------------------------------------------------
      10ms   internal/runtime/syscall.Syscall6
             syscall.Syscall
             internal/poll.(*FD).Write
-----------+-------------------------------------------------------
      role:  server
     1.50s   sync.(*Mutex).Lock
             skiptrie/internal/server.(*Server).lookupNS
-----------+-------------------------------------------------------
      30ms   hash/crc32.Update
             skiptrie/internal/wire.Encode
-----------+-------------------------------------------------------
      40ms   memeqbody
             encoding/binary.bigEndian.Uint32
             skiptrie/internal/wire.Decode
-----------+-------------------------------------------------------
      50ms   sync/atomic.(*Int64).Add
             sync.(*Pool).Get
             encoding/json.Marshal
             main.main
`

func TestParseTracesAndLayers(t *testing.T) {
	got, err := parseTraces(tracesText)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		ns    int64
		role  string
		depth int
		layer string
	}{
		{20e6, "client", 3, "dcss"},
		{10e6, "", 3, "net"},
		{1.5e9, "server", 2, "server"},
		{30e6, "", 2, "other"}, // an unlisted leaf package is not charged to its caller
		{40e6, "", 3, "wire"},  // helpers and assembly bodies are
		{50e6, "", 4, "other"}, // past the helpers, the first other package decides
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d samples, want %d", len(got), len(want))
	}
	for i, w := range want {
		s := got[i]
		if s.ns != w.ns || s.role != w.role || len(s.stack) != w.depth || layerOf(s.stack) != w.layer {
			t.Errorf("sample %d = {%d %q depth %d layer %s}, want {%d %q depth %d layer %s}",
				i, s.ns, s.role, len(s.stack), layerOf(s.stack), w.ns, w.role, w.depth, w.layer)
		}
	}
	if !slices.Contains(got[0].stack, "skiptrie/internal/skiplist.(*Topology).search") {
		t.Errorf("caller frame missing from %v", got[0].stack)
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.mallocgc":                         "runtime",
		"main.main.func1":                          "main",
		"skiptrie.(*Map[go.shape.uint64]).Load":    "skiptrie",
		"internal/poll.(*FD).Write":                "internal/poll",
		"skiptrie/internal/xfast.(*Trie).Pred":     "skiptrie/internal/xfast",
		"skiptrie/internal/core.New[go.shape.int]": "skiptrie/internal/core",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
