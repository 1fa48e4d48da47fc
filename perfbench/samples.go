package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// sampleBuf is a growable record of latency samples kept in anonymous
// memory outside the Go heap. Samples held on the heap would count
// toward the garbage collector's heap goal, so the program under test
// would collect less often than it does alone.
type sampleBuf struct {
	mem []byte   // the mapping behind s
	s   []uint32 // the samples; cap(s) fills mem
}

// reserve maps room for at least n samples, with its pages touched in
// advance so page faults stay out of the window, and keeps any samples
// already recorded.
func (b *sampleBuf) reserve(n int) error {
	if n <= cap(b.s) {
		return nil
	}
	mem, err := syscall.Mmap(-1, 0, n*4, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_POPULATE)
	if err != nil {
		return fmt.Errorf("sample buffer of %d samples: %w", n, err)
	}
	s := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), n)[:len(b.s)]
	copy(s, b.s)
	b.release()
	b.mem, b.s = mem, s
	return nil
}

// add records one sample, doubling the mapping when it is full.
func (b *sampleBuf) add(v uint32) {
	if len(b.s) == cap(b.s) {
		if err := b.reserve(max(2*cap(b.s), 1<<16)); err != nil {
			panic(err)
		}
	}
	b.s = append(b.s, v) // within capacity: writes the mapping
}

// addAll records every sample of xs.
func (b *sampleBuf) addAll(xs []uint32) {
	if err := b.reserve(len(b.s) + len(xs)); err != nil {
		panic(err)
	}
	b.s = append(b.s, xs...)
}

// release unmaps the buffer; it must not be used afterwards.
func (b *sampleBuf) release() {
	if b.mem != nil {
		syscall.Munmap(b.mem)
	}
	b.mem, b.s = nil, nil
}
