package main

import (
	"crypto/ed25519"
	"math"
	"net"
	"slices"
	"time"
)

// The host probe. This sandbox's effective CPU speed for general code
// shifts by 15–25 % for minutes at a time (a busy neighbour on the
// sibling hardware thread, by the look of it: hashing with SHA
// extensions barely notices, everything else slows together), and two
// sets of runs of the same code then differ by more than any bound
// worth having. The probe is a fixed piece of work, independent of the
// program under test, that slows with the host the way the program
// does: hashed-map inserts and lookups plus a sort, Ed25519 sign and
// verify, a loopback TCP ping-pong between two goroutines (system calls
// and cross-thread wake-ups), and a dependent walk over 8 MiB. It runs
// between blocks, off the clock.
//
// hostSpeed is reference time ÷ measured time, per component, combined
// by geometric mean: 1 on the reference host in its usual state, lower
// when the host is slow. End-to-end timing metrics are reported in
// reference-host time: measured time × hostSpeed.

// probeRef is each component's time on the reference host, in the
// state the host is in most of the time.
var probeRef = [numProbeParts]time.Duration{
	6300 * time.Microsecond,  // map + sort
	3900 * time.Microsecond,  // ed25519
	1450 * time.Microsecond,  // ping-pong
	12200 * time.Microsecond, // memory walk
}

const numProbeParts = 4

type probeSample [numProbeParts]time.Duration

// Nothing in sample allocates beyond a signature's 64 bytes, so the
// probe's time does not depend on the state of the benchmark process's
// garbage collector, which the program under test does influence.
type hostProbe struct {
	keys   []uint64
	table  map[uint64]uint32
	sorted []uint64
	mem    []uint64
	priv   ed25519.PrivateKey
	conn   net.Conn
	done   chan struct{}
}

// newHostProbe starts the echo side of the ping-pong.
func newHostProbe() (*hostProbe, error) {
	p := &hostProbe{
		keys:   make([]uint64, 50_000),
		table:  make(map[uint64]uint32, 50_000),
		sorted: make([]uint64, 20_000),
		mem:    make([]uint64, 1<<20),
		priv:   ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize)),
		done:   make(chan struct{}),
	}
	x := uint64(88172645463325252)
	for i := range p.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.keys[i] = x
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	go func() {
		defer close(p.done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 64)
		for {
			n, err := c.Read(buf)
			if err != nil {
				return // the probe closed its end
			}
			if _, err := c.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	if p.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close() // unblocks Accept
		<-p.done
		return nil, err
	}
	return p, nil
}

// close ends the echo goroutine and waits for it.
func (p *hostProbe) close() {
	p.conn.Close()
	<-p.done
}

// sample runs the four components once.
func (p *hostProbe) sample() (s probeSample) {
	t0 := time.Now()
	clear(p.table)
	for i, k := range p.keys {
		p.table[k] = uint32(i)
	}
	sum := 0
	for _, k := range p.keys {
		sum += int(p.table[k^1]) + int(p.table[k])
	}
	copy(p.sorted, p.keys)
	slices.Sort(p.sorted)
	p.mem[0] = uint64(sum) + p.sorted[0]
	s[0] = time.Since(t0)

	t0 = time.Now()
	msg := []byte("irs bench host probe")
	pub := p.priv.Public().(ed25519.PublicKey)
	for i := 0; i < 40; i++ {
		if !ed25519.Verify(pub, msg, ed25519.Sign(p.priv, msg)) {
			panic("bench: ed25519 does not verify its own signature")
		}
	}
	s[1] = time.Since(t0)

	t0 = time.Now()
	var buf [32]byte
	for i := 0; i < 150; i++ {
		if _, err := p.conn.Write(buf[:]); err != nil {
			break
		}
		if _, err := p.conn.Read(buf[:]); err != nil {
			break
		}
	}
	s[2] = time.Since(t0)

	t0 = time.Now()
	x := uint64(2463534242)
	const mask = 1<<20 - 1
	for i := 0; i < 100_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		p.mem[j] += x
		x += p.mem[(j+4099)&mask]
	}
	p.mem[1] = x
	s[3] = time.Since(t0)
	return s
}

// hostSpeed combines samples: per component the median time, then the
// geometric mean of reference ÷ median.
func hostSpeed(samples []probeSample) float64 {
	logSum := 0.0
	for part, med := range probeMedians(samples) {
		logSum += math.Log(float64(probeRef[part]) / float64(med))
	}
	return math.Exp(logSum / numProbeParts)
}

// probeMedians is each component's median over the samples.
func probeMedians(samples []probeSample) (med probeSample) {
	v := make([]time.Duration, len(samples))
	for part := range med {
		for i := range samples {
			v[i] = samples[i][part]
		}
		med[part] = quantile(v, 0.5)
	}
	return med
}
