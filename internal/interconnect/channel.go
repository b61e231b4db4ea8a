// Package interconnect implements ViTAL's latency-insensitive inter-block
// interface (Sections 3.2, 3.5.1 and 3.5.2): FIFO-buffered channels with
// credit-based back-pressure and clock-enable gating of user logic, the
// buffer-elision optimization for deterministic on-chip paths, and a
// cycle-level dataflow simulator used to measure the interface's bare-metal
// bandwidth and latency (Table 4).
package interconnect

import (
	"errors"
	"fmt"
)

// LinkClass identifies the physical path a channel is mapped onto. The
// same latency-insensitive protocol runs over all three — that is the point
// of the abstraction — but bandwidth and latency differ.
type LinkClass uint8

// Link classes.
const (
	// IntraDie links stay within one die; latency is deterministic and
	// buffers can be elided (Section 3.5.2).
	IntraDie LinkClass = iota
	// InterDie links cross an SLR boundary through dedicated crossing
	// registers.
	InterDie
	// InterFPGA links leave the package through transceivers onto the
	// 100 Gbps ring.
	InterFPGA
)

// String names the link class.
func (c LinkClass) String() string {
	switch c {
	case IntraDie:
		return "intra-die"
	case InterDie:
		return "inter-die"
	case InterFPGA:
		return "inter-FPGA"
	}
	return fmt.Sprintf("LinkClass(%d)", uint8(c))
}

// Params describes the physical channel configuration.
type Params struct {
	Class LinkClass
	// WidthBits is the datapath width of one channel.
	WidthBits int
	// ClockMHz is the channel clock.
	ClockMHz float64
	// LatencyCycles is the wire/transceiver flight time in cycles.
	LatencyCycles int
	// FIFODepth is the receive-buffer depth in tokens. Zero selects an
	// elided channel (only legal for IntraDie).
	FIFODepth int
}

// DefaultParams returns the calibrated per-class channel parameters of the
// evaluation platform (Section 5.2, Table 4): the inter-FPGA path is one
// slot of the 100 Gbps ring; the inter-die path crosses SLR boundaries
// through dedicated crossing registers.
func DefaultParams(c LinkClass) Params {
	switch c {
	case InterFPGA:
		// 512 bit × 195.3125 MHz = 100 Gb/s; flight ≈ 520 ns.
		return Params{Class: c, WidthBits: 512, ClockMHz: 195.3125, LatencyCycles: 102, FIFODepth: 128}
	case InterDie:
		// 512 bit × 610.3516 MHz = 312.5 Gb/s; 4 crossing registers.
		return Params{Class: c, WidthBits: 512, ClockMHz: 610.3516, LatencyCycles: 4, FIFODepth: 16}
	default:
		// On-chip: 512 bit × 610.3516 MHz, 2 pipeline stages, elided
		// buffers (deterministic latency).
		return Params{Class: c, WidthBits: 512, ClockMHz: 610.3516, LatencyCycles: 2, FIFODepth: 0}
	}
}

// PeakGbps returns the theoretical channel bandwidth.
func (p Params) PeakGbps() float64 {
	return float64(p.WidthBits) * p.ClockMHz * 1e6 / 1e9
}

// MinLatencyNs returns the empty-channel flight latency in nanoseconds.
func (p Params) MinLatencyNs() float64 {
	return float64(p.LatencyCycles) / (p.ClockMHz * 1e6) * 1e9
}

// Token is one flit travelling through a channel. Seq is assigned by the
// producer and lets tests assert loss/duplication/reordering freedom.
type Token struct {
	Seq     uint64
	Payload uint64
}

// Errors returned by channel operations.
var (
	ErrNoCredit       = errors.New("interconnect: push without credit")
	ErrElidedWrongUse = errors.New("interconnect: elided buffers are only legal on intra-die channels")
	ErrBadParams      = errors.New("interconnect: invalid channel parameters")
)

// Channel is one latency-insensitive channel instance. It is advanced by an
// external clock via Step (one call per cycle); producers use CanPush/Push,
// consumers CanPop/Pop. The channel computes the clock-enable signal for
// the upstream user logic: when it is false, the producer must hold (the
// control logic clock-gates the user logic, Section 3.2).
type Channel struct {
	P Params

	// pipe models wire flight: pipe[0] is about to arrive.
	pipe []tokenSlot
	// fifo is the receive buffer (nil when elided).
	fifo  []Token
	head  int
	count int
	// credits is the producer's view of free receive-buffer slots; it is
	// what makes back-pressure safe across the flight latency.
	credits int

	// elided marks a channel whose buffering lives entirely in the wire's
	// own pipeline registers (elastic pipeline) — no BRAM FIFOs.
	elided bool

	// ring is the shared-medium arbiter for inter-FPGA channels (nil for
	// dedicated links); ringIdx is the channel's member index on it and
	// ringGrant this cycle's slot grant.
	ring      *Ring
	ringIdx   int
	ringGrant bool

	// Statistics. Pushed counts tokens the producer pushed through the
	// protocol; Primed counts tokens deposited by buffer initialization
	// (Section 3.5.1) and is kept separate so priming never inflates
	// observed push rates. FullCycles counts cycles the channel spent with
	// zero credits — the cycles in which a willing producer would have been
	// clock-gated by back-pressure. PeakOccupancy is the high-water mark of
	// the receive buffer.
	Pushed, Popped, Primed uint64
	FullCycles             uint64
	PeakOccupancy          int
}

type tokenSlot struct {
	t     Token
	valid bool
}

// New builds a channel. Elided channels (FIFODepth 0) are only legal
// intra-die, where latency is deterministic and resolved at compile time
// (Section 3.5.2). Elision removes the BRAM receive FIFOs; the wire's own
// pipeline registers act as an elastic pipeline, so the channel still
// tolerates a consumer stall of up to LatencyCycles+2 tokens before the
// control logic clock-gates the producer.
func New(p Params) (*Channel, error) {
	if p.WidthBits <= 0 || p.ClockMHz <= 0 || p.LatencyCycles < 0 {
		return nil, ErrBadParams
	}
	c := &Channel{P: p, pipe: make([]tokenSlot, p.LatencyCycles)}
	depth := p.FIFODepth
	if depth == 0 {
		if p.Class != IntraDie {
			return nil, ErrElidedWrongUse
		}
		c.elided = true
		depth = p.LatencyCycles + 2
	}
	c.fifo = make([]Token, depth)
	c.credits = depth
	return c, nil
}

// Elided reports whether the channel runs without receive buffers.
func (c *Channel) Elided() bool { return c.elided }

// CanPush reports whether the producer may push this cycle — the
// clock-enable for the producing user logic. Channels on a shared ring
// additionally need this cycle's arbitration grant.
func (c *Channel) CanPush() bool {
	if c.ring != nil && !c.ringGrant {
		return false
	}
	return c.credits > 0
}

// Push inserts a token into the channel's wire pipeline.
func (c *Channel) Push(t Token) error {
	if !c.CanPush() {
		return ErrNoCredit
	}
	c.credits--
	if c.ring != nil {
		c.ring.noteGrantUsed(c)
		c.ringGrant = false // one flit per grant
	}
	if len(c.pipe) == 0 {
		// Zero-latency wire: deliver immediately.
		c.deliver(t)
	} else {
		// Occupies the tail slot; Step moves it forward. A producer can
		// push at most once per cycle, so the tail is free by protocol.
		c.pipe[len(c.pipe)-1] = tokenSlot{t: t, valid: true}
	}
	c.Pushed++
	return nil
}

// deliver lands a token at the consumer side.
func (c *Channel) deliver(t Token) {
	c.fifo[(c.head+c.count)%len(c.fifo)] = t
	c.count++
	if c.count > c.PeakOccupancy {
		c.PeakOccupancy = c.count
	}
}

// CanPop reports whether a token is available to the consumer — the
// consumer-side clock-enable.
func (c *Channel) CanPop() bool { return c.count > 0 }

// Pop removes the next token. The second return is false when empty.
func (c *Channel) Pop() (Token, bool) {
	if c.count == 0 {
		return Token{}, false
	}
	t := c.fifo[c.head]
	c.head = (c.head + 1) % len(c.fifo)
	// Credit return is immediate in this model; a hardware implementation
	// pipelines it, which only shifts the depth-for-full-throughput
	// threshold.
	c.credits++
	c.count--
	c.Popped++
	return t, true
}

// Step advances the wire pipeline one cycle. Call exactly once per cycle,
// after producers pushed and before consumers pop (arrivals become visible
// in the same cycle they land).
func (c *Channel) Step() {
	if c.credits == 0 {
		c.FullCycles++
	}
	if len(c.pipe) == 0 {
		return
	}
	if c.pipe[0].valid {
		c.deliver(c.pipe[0].t)
	}
	copy(c.pipe, c.pipe[1:])
	c.pipe[len(c.pipe)-1] = tokenSlot{}
}

// Prime deposits n initial tokens directly in the receive buffer — the
// buffer initialization of Section 3.5.1 that guarantees at least one
// non-empty input buffer on cyclic dataflow, the condition that provably
// avoids deadlock. It returns an error if the buffer cannot hold them.
func (c *Channel) Prime(n int) error {
	for i := 0; i < n; i++ {
		if c.credits == 0 {
			return ErrNoCredit
		}
		c.deliver(Token{Seq: ^uint64(0) - uint64(i)})
		c.credits--
		// Primed tokens bypass Push on purpose: they are initialization
		// state, not produced traffic, and must not inflate Pushed.
		c.Primed++
	}
	return nil
}

// reset puts the channel back in the state New left it in, then deposits
// again the tokens it was primed with.
func (c *Channel) reset() {
	primed := int(c.Primed)
	clear(c.pipe)
	clear(c.fifo)
	c.head, c.count, c.credits = 0, 0, len(c.fifo)
	c.ringGrant = false
	c.Pushed, c.Popped, c.Primed, c.FullCycles, c.PeakOccupancy = 0, 0, 0, 0, 0
	// The empty buffer held these tokens before, so priming cannot fail.
	_ = c.Prime(primed)
}

// Occupancy returns the number of buffered tokens (consumer side).
func (c *Channel) Occupancy() int { return c.count }
