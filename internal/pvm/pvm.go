// Package pvm reimplements the user-visible interface of the Parallel
// Virtual Machine message-passing library (paper §2.1) on top of the
// simulated cluster.
//
// As in PVM 3.3, user data is packed into a typed send buffer before
// dispatch and unpacked from a receive buffer afterwards; pack and unpack
// calls must match in type and item count.  Sends are non-blocking (the
// buffer is handed to the transport and the call returns); receives come
// in blocking (Recv) and non-blocking (NRecv) flavors.  Multicast and
// broadcast primitives send to several destinations.
//
// Processes communicate over direct TCP connections (the configuration the
// paper measures), so the accounting matches the paper's PVM columns in
// Table 2: one message per user-level send, bytes of user data only.
// XDR conversion is modeled as an optional per-byte CPU cost and is
// disabled by default, as in the paper (identical machines).
package pvm

import (
	"encoding/binary"
	"fmt"

	"repro/internal/sim"
	"repro/internal/vnet"
)

// System is one PVM virtual machine: a set of processes on the simulated
// cluster.  Process ids ("tids") are dense integers; ids 0..n-1 are the
// regular processes and ids ≥ n are extra processes (e.g. a master that
// shares a node with slave 0, as in the paper's TSP and QSORT).
type System struct {
	eng  *sim.Engine
	net  *vnet.Network
	n    int
	eps  []*vnet.Endpoint
	xdr  bool
	xdrC sim.Time // per-byte XDR conversion cost when enabled
}

// New creates a PVM system with n regular processes.
func New(eng *sim.Engine, net *vnet.Network, n int) *System {
	if n < 1 {
		panic("pvm: need at least one process")
	}
	s := &System{eng: eng, net: net, n: n}
	for i := 0; i < n; i++ {
		// Endpoint id == process id: messages carry the sender's process
		// id, so receivers address peers by id even when extra processes
		// share a node (SpawnExtraAt).
		s.eps = append(s.eps, net.NewEndpointID(i, i, false))
	}
	return s
}

// EnableXDR turns on external-data-representation conversion, charging
// perByte of CPU at both pack and unpack time.  The paper disables XDR
// because all machines are identical; tests exercise both settings.
func (s *System) EnableXDR(perByte sim.Time) {
	s.xdr = true
	s.xdrC = perByte
}

// NumTasks returns the number of regular processes.
func (s *System) NumTasks() int { return s.n }

// Spawn registers the body for regular process id.
func (s *System) Spawn(id int, body func(*Proc)) {
	if id < 0 || id >= s.n {
		panic(fmt.Sprintf("pvm: spawn id %d out of range", id))
	}
	p := &Proc{sys: s, id: id, ep: s.eps[id]}
	s.eng.Spawn(fmt.Sprintf("pvm%d", id), false, func(c *sim.Ctx) {
		p.ctx = c
		body(p)
	})
}

// SpawnExtra registers an additional process (id ≥ n), such as the master
// in a master/slave decomposition, on a fresh node of its own.  It
// returns the new process id.  The extra process gets its own endpoint
// and exchanges real messages with every slave.
func (s *System) SpawnExtra(name string, body func(*Proc)) int {
	return s.SpawnExtraAt(name, -1, body)
}

// SpawnExtraAt registers an additional process placed on the given node:
// -1 means a fresh node of its own (SpawnExtra), while an existing node
// id co-locates the process with that node's regular process — traffic
// between the two crosses loopback, costs almost nothing and is not
// counted as user messages, modeling the paper's master sharing a
// workstation with slave 0.  Addressing is by process id either way:
// messages carry the sender's process id, so Recv(src, tag) with src
// naming the extra process matches only it, and Buffer.Src() reports the
// true sender even when two processes share a node.
func (s *System) SpawnExtraAt(name string, node int, body func(*Proc)) int {
	id := len(s.eps)
	if node < 0 {
		node = id
	} else if node >= s.n {
		panic(fmt.Sprintf("pvm: extra process placed on unknown node %d", node))
	}
	ep := s.net.NewEndpointID(node, id, false)
	s.eps = append(s.eps, ep)
	p := &Proc{sys: s, id: id, ep: ep}
	s.eng.Spawn(name, false, func(c *sim.Ctx) {
		p.ctx = c
		body(p)
	})
	return id
}

// UserStats sums user-level message statistics across all processes:
// the quantities the paper reports for PVM in Table 2.
func (s *System) UserStats() vnet.Stats {
	var st vnet.Stats
	for _, ep := range s.eps {
		st.Add(ep.Stats())
	}
	return st
}

// packPerByte is the modeled memcpy cost of packing or unpacking user data.
const packPerByte = 5 * sim.Nanosecond

// Proc is one PVM process.
type Proc struct {
	sys  *System
	id   int
	ep   *vnet.Endpoint
	ctx  *sim.Ctx
	send *Buffer

	// sendHint estimates this process's next message size from the sizes
	// it has dispatched.  Applications send the same message shapes over
	// and over (boundary rows, force blocks, count arrays), so presizing
	// the next send buffer eliminates the repeated grow-and-copy
	// reallocations on the pack path.  Send buffers cannot be pooled
	// outright — their bytes are handed to the transport without a copy
	// — but their capacity is known in advance.  The hint rises to the
	// observed size immediately and decays geometrically when messages
	// shrink, so one huge send (QSORT's initial full-array shipment)
	// does not pin every later buffer at its capacity.
	sendHint int
}

// ID returns the process id (0-based).
func (p *Proc) ID() int { return p.id }

// N returns the number of regular processes in the system.
func (p *Proc) N() int { return p.sys.n }

// Ctx exposes the underlying sim context for compute-cost charging.
func (p *Proc) Ctx() *sim.Ctx { return p.ctx }

// Now returns the process's virtual clock.
func (p *Proc) Now() sim.Time { return p.ctx.Now() }

// Compute charges local computation time.
func (p *Proc) Compute(d sim.Time) { p.ctx.Compute(d) }

// InitSend clears and returns the process's send buffer (pvm_initsend),
// presized to the largest message this process has dispatched so far.
func (p *Proc) InitSend() *Buffer {
	p.send = &Buffer{proc: p}
	if p.sendHint > 0 {
		p.send.data = make([]byte, 0, p.sendHint)
	}
	return p.send
}

// SendBuf returns the current send buffer, or panics if InitSend has not
// been called.
func (p *Proc) SendBuf() *Buffer {
	if p.send == nil {
		panic("pvm: Send without InitSend")
	}
	return p.send
}

// Send dispatches the current send buffer to dst with the given tag
// (pvm_send).  The send is non-blocking: it returns once the buffer has
// been handed to the transport.
//
// The packed bytes are handed to the transport without a defensive copy:
// Pack* calls only ever append, so later packing into this or a fresh
// buffer (InitSend) cannot alter bytes already in flight.
func (p *Proc) Send(dst, tag int) {
	buf := p.SendBuf()
	p.sys.checkDst(dst)
	p.noteSent(len(buf.data))
	p.ep.Send(p.ctx, p.sys.eps[dst], tag, buf.data)
}

// noteSent records a dispatched message size for InitSend presizing:
// rise immediately, decay halfway toward smaller sizes.
func (p *Proc) noteSent(n int) {
	if n >= p.sendHint {
		p.sendHint = n
	} else {
		p.sendHint -= (p.sendHint - n) / 2
	}
}

// Mcast dispatches the current send buffer to each destination
// (pvm_mcast).  Each destination counts as one user-level message.
// Destinations share one payload; receive buffers never mutate it.
func (p *Proc) Mcast(dsts []int, tag int) {
	buf := p.SendBuf()
	p.noteSent(len(buf.data))
	for _, d := range dsts {
		p.sys.checkDst(d)
		p.ep.Send(p.ctx, p.sys.eps[d], tag, buf.data)
	}
}

// Bcast dispatches the current send buffer to every regular process except
// the sender.
func (p *Proc) Bcast(tag int) {
	var dsts []int
	for i := 0; i < p.sys.n; i++ {
		if i != p.id {
			dsts = append(dsts, i)
		}
	}
	p.Mcast(dsts, tag)
}

// Recv blocks until a message with the given source and tag arrives
// (pvm_recv).  Negative src or tag match anything; src is a process id.
// The returned buffer is positioned for unpacking.  The transport
// envelope is recycled here; the payload bytes live on inside the buffer.
func (p *Proc) Recv(src, tag int) *Buffer {
	m := p.ep.Recv(p.ctx, src, tag)
	b := &Buffer{proc: p, data: m.Payload, src: m.From, tag: m.Tag}
	p.ep.Free(m)
	return b
}

// NRecv is the non-blocking receive (pvm_nrecv): it returns nil when no
// matching message has arrived yet, allowing the caller to overlap useful
// work with communication.
func (p *Proc) NRecv(src, tag int) *Buffer {
	m := p.ep.TryRecv(p.ctx, src, tag)
	if m == nil {
		return nil
	}
	b := &Buffer{proc: p, data: m.Payload, src: m.From, tag: m.Tag}
	p.ep.Free(m)
	return b
}

// Probe reports whether a matching message has arrived (pvm_probe).
func (p *Proc) Probe(src, tag int) bool {
	return p.ep.Probe(p.ctx, src, tag)
}

func (s *System) checkDst(dst int) {
	if dst < 0 || dst >= len(s.eps) {
		panic(fmt.Sprintf("pvm: destination %d out of range", dst))
	}
}

// Type tags for packed runs.
const (
	tInt32 byte = iota + 1
	tInt64
	tFloat64
	tBytes
)

func typeName(t byte) string {
	switch t {
	case tInt32:
		return "int32"
	case tInt64:
		return "int64"
	case tFloat64:
		return "float64"
	case tBytes:
		return "bytes"
	}
	return fmt.Sprintf("type%d", t)
}

// Buffer is a typed pack/unpack buffer.  Data is stored as a sequence of
// runs, each a (type, count) header followed by little-endian items.
// Unpack calls must match the corresponding pack calls in type and item
// count, as required by PVM.
type Buffer struct {
	proc *Proc
	data []byte
	rpos int
	src  int
	tag  int
}

// Src returns the sender's process id.
func (b *Buffer) Src() int { return b.src }

// Tag returns the tag of a received buffer.
func (b *Buffer) Tag() int { return b.tag }

// Len returns the encoded length in bytes (the user data the paper counts).
func (b *Buffer) Len() int { return len(b.data) }

func (b *Buffer) charge(n int) {
	if b.proc == nil {
		return
	}
	c := sim.Time(n) * packPerByte
	if b.proc.sys.xdr {
		c += sim.Time(n) * b.proc.sys.xdrC
	}
	b.proc.ctx.Compute(c)
}

func (b *Buffer) header(t byte, count int) {
	b.data = append(b.data, t)
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(count))
	b.data = append(b.data, tmp[:]...)
}

// grow extends the buffer by n bytes in one step and returns the region
// to fill, so bulk packs cost one allocation check instead of one append
// per item.
func (b *Buffer) grow(n int) []byte {
	off := len(b.data)
	if cap(b.data)-off < n {
		nd := make([]byte, off, 2*off+n)
		copy(nd, b.data)
		b.data = nd
	}
	b.data = b.data[:off+n]
	return b.data[off:]
}

// PackInt32 packs count items from vals starting at offset 0 with the
// given stride (pvm_pkint).  stride 1 packs consecutive items.
func (b *Buffer) PackInt32(vals []int32, count, stride int) {
	checkStride(len(vals), count, stride)
	b.header(tInt32, count)
	dst := b.grow(4 * count)
	for i := 0; i < count; i++ {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(vals[i*stride]))
	}
	b.charge(4 * count)
}

// PackInt64 packs count int64 items with the given stride (pvm_pklong).
func (b *Buffer) PackInt64(vals []int64, count, stride int) {
	checkStride(len(vals), count, stride)
	b.header(tInt64, count)
	dst := b.grow(8 * count)
	for i := 0; i < count; i++ {
		binary.LittleEndian.PutUint64(dst[8*i:], uint64(vals[i*stride]))
	}
	b.charge(8 * count)
}

// PackFloat64 packs count float64 items with the given stride
// (pvm_pkdouble).
func (b *Buffer) PackFloat64(vals []float64, count, stride int) {
	checkStride(len(vals), count, stride)
	b.header(tFloat64, count)
	dst := b.grow(8 * count)
	for i := 0; i < count; i++ {
		binary.LittleEndian.PutUint64(dst[8*i:], floatBits(vals[i*stride]))
	}
	b.charge(8 * count)
}

// PackBytes packs raw bytes (pvm_pkbyte, stride 1).
func (b *Buffer) PackBytes(vals []byte) {
	b.header(tBytes, len(vals))
	b.data = append(b.data, vals...)
	b.charge(len(vals))
}

// PackOneInt32 packs a single int32 value.
func (b *Buffer) PackOneInt32(v int32) { b.PackInt32([]int32{v}, 1, 1) }

// PackOneInt64 packs a single int64 value.
func (b *Buffer) PackOneInt64(v int64) { b.PackInt64([]int64{v}, 1, 1) }

// PackOneFloat64 packs a single float64 value.
func (b *Buffer) PackOneFloat64(v float64) { b.PackFloat64([]float64{v}, 1, 1) }

func (b *Buffer) readHeader(want byte, count int) {
	if b.rpos+5 > len(b.data) {
		panic(fmt.Sprintf("pvm: unpack past end of buffer (pos %d, len %d)", b.rpos, len(b.data)))
	}
	t := b.data[b.rpos]
	n := int(binary.LittleEndian.Uint32(b.data[b.rpos+1 : b.rpos+5]))
	if t != want {
		panic(fmt.Sprintf("pvm: unpack type mismatch: packed %s, unpacking %s", typeName(t), typeName(want)))
	}
	if n != count {
		panic(fmt.Sprintf("pvm: unpack count mismatch: packed %d %s items, unpacking %d", n, typeName(t), count))
	}
	b.rpos += 5
}

// UnpackInt32 unpacks count items into dst with the given stride.
func (b *Buffer) UnpackInt32(dst []int32, count, stride int) {
	checkStride(len(dst), count, stride)
	b.readHeader(tInt32, count)
	for i := 0; i < count; i++ {
		dst[i*stride] = int32(binary.LittleEndian.Uint32(b.data[b.rpos:]))
		b.rpos += 4
	}
	b.charge(4 * count)
}

// UnpackInt64 unpacks count int64 items into dst with the given stride.
func (b *Buffer) UnpackInt64(dst []int64, count, stride int) {
	checkStride(len(dst), count, stride)
	b.readHeader(tInt64, count)
	for i := 0; i < count; i++ {
		dst[i*stride] = int64(binary.LittleEndian.Uint64(b.data[b.rpos:]))
		b.rpos += 8
	}
	b.charge(8 * count)
}

// UnpackFloat64 unpacks count float64 items into dst with the given stride.
func (b *Buffer) UnpackFloat64(dst []float64, count, stride int) {
	checkStride(len(dst), count, stride)
	b.readHeader(tFloat64, count)
	for i := 0; i < count; i++ {
		dst[i*stride] = floatFromBits(binary.LittleEndian.Uint64(b.data[b.rpos:]))
		b.rpos += 8
	}
	b.charge(8 * count)
}

// UnpackBytes unpacks count raw bytes.
func (b *Buffer) UnpackBytes(count int) []byte {
	b.readHeader(tBytes, count)
	out := append([]byte(nil), b.data[b.rpos:b.rpos+count]...)
	b.rpos += count
	b.charge(count)
	return out
}

// UnpackOneInt32 unpacks a single int32 value.
func (b *Buffer) UnpackOneInt32() int32 {
	var v [1]int32
	b.UnpackInt32(v[:], 1, 1)
	return v[0]
}

// UnpackOneInt64 unpacks a single int64 value.
func (b *Buffer) UnpackOneInt64() int64 {
	var v [1]int64
	b.UnpackInt64(v[:], 1, 1)
	return v[0]
}

// UnpackOneFloat64 unpacks a single float64 value.
func (b *Buffer) UnpackOneFloat64() float64 {
	var v [1]float64
	b.UnpackFloat64(v[:], 1, 1)
	return v[0]
}

func checkStride(n, count, stride int) {
	if stride < 1 {
		panic("pvm: stride must be >= 1")
	}
	if count < 0 || (count > 0 && (count-1)*stride >= n) {
		panic(fmt.Sprintf("pvm: pack/unpack of %d items with stride %d overruns slice of %d", count, stride, n))
	}
}
