package simnet

import (
	"fmt"
	"math/rand"
	"reflect"

	"mrdb/internal/obs"
	"mrdb/internal/sim"
)

// Message is a network payload addressed to a node.
type Message struct {
	From    NodeID
	To      NodeID
	Payload interface{}
}

// Handler consumes messages delivered to a node. A plain message (Send) is
// handed over in scheduler context: the handler must not block, and long work
// should be spawned as a Proc. A request (SendRPC) arrives as an *RPCRequest
// payload on a process of its own, RPCRequest.Proc, started at the delivery
// instant: the handler runs on that process and may block on it before it
// calls Reply. Reply is the handler's last touch of the request: once the
// reply lands, the caller reuses the record, and with it what it carried.
type Handler func(msg Message)

// Network delivers messages between nodes with topology-derived latency,
// deterministic jitter, and injectable failures.
type Network struct {
	Sim  *sim.Simulation
	Topo *Topology

	handlers map[NodeID]Handler
	// downNodes refuse to send or receive anything.
	downNodes map[NodeID]bool
	// partitioned holds directional blocks: an entry {a,b} drops a→b only.
	// Symmetric partitions insert both directions.
	partitioned map[[2]NodeID]bool
	// downRegions drop all traffic in or out of a region.
	downRegions map[Region]bool
	// slowLinks adds extra one-way latency per directed link.
	slowLinks map[[2]NodeID]sim.Duration
	// jitter is the "simnet/jitter" stream, drawn once per message.
	jitter *rand.Rand

	// Stats
	MessagesSent    int64
	MessagesDropped int64
	BytesEstimate   int64
	// sentByType counts MessagesSent by payload type: local ([0]) and WAN
	// ([1]).
	sentByType map[reflect.Type]*[2]int64

	// Tracer, when set, records a "net.rpc" span per RPC with per-message
	// link attribution (endpoints, regions, WAN classification, one-way
	// delay). Optional; nil-safe.
	Tracer *obs.Tracer
	// Metrics, when set, counts messages and RPC round trips, split by
	// WAN/local. Optional; nil-safe.
	Metrics *obs.Registry

	// m holds the handles into Metrics, resolved once per registry rather
	// than by name on every message.
	m netMetrics

	// free holds the in-flight records of delivered messages for the next
	// Send to reuse.
	free []*flight
	// freeRPCs holds the records of exchanges whose reply landed, for the
	// next SendRPC to reuse.
	freeRPCs []*RPCRequest
}

// netMetrics is the network's counters as resolved from one registry.
type netMetrics struct {
	from                       *obs.Registry
	send, sendWAN, rpc, rpcWAN *obs.Counter
	rtt                        *obs.Histogram
}

// metrics returns the handles into n.Metrics, resolving them again if the
// field was reassigned since the last message.
func (n *Network) metrics() *netMetrics {
	if r := n.Metrics; n.m.from != r {
		n.m = netMetrics{
			from:    r,
			send:    r.Counter("net.send"),
			sendWAN: r.Counter("net.send.wan"),
			rpc:     r.Counter("net.rpc"),
			rpcWAN:  r.Counter("net.rpc.wan"),
			rtt:     r.Histogram("net.rpc.rtt"),
		}
	}
	return &n.m
}

// NewNetwork returns a network over the given simulation and topology.
func NewNetwork(s *sim.Simulation, topo *Topology) *Network {
	return &Network{
		Sim:         s,
		Topo:        topo,
		handlers:    map[NodeID]Handler{},
		downNodes:   map[NodeID]bool{},
		partitioned: map[[2]NodeID]bool{},
		downRegions: map[Region]bool{},
		slowLinks:   map[[2]NodeID]sim.Duration{},
		jitter:      s.Stream("simnet/jitter"),
	}
}

// Register installs the message handler for a node.
func (n *Network) Register(id NodeID, h Handler) { n.handlers[id] = h }

// CrashNode makes a node unreachable until RestartNode.
func (n *Network) CrashNode(id NodeID) { n.downNodes[id] = true }

// RestartNode brings a crashed node back.
func (n *Network) RestartNode(id NodeID) { delete(n.downNodes, id) }

// NodeDown reports whether the node is crashed.
func (n *Network) NodeDown(id NodeID) bool { return n.downNodes[id] }

// FailRegion drops all traffic to and from every node in the region,
// simulating a whole-region outage (paper §2.2 REGION survivability).
func (n *Network) FailRegion(r Region) { n.downRegions[r] = true }

// RecoverRegion ends a region outage.
func (n *Network) RecoverRegion(r Region) { delete(n.downRegions, r) }

// Partition blocks traffic between two specific nodes in both directions.
func (n *Network) Partition(a, b NodeID) {
	n.partitioned[[2]NodeID{a, b}] = true
	n.partitioned[[2]NodeID{b, a}] = true
}

// Heal removes a pairwise partition (both directions).
func (n *Network) Heal(a, b NodeID) {
	delete(n.partitioned, [2]NodeID{a, b})
	delete(n.partitioned, [2]NodeID{b, a})
}

// PartitionOneWay blocks traffic from a to b only; b can still reach a.
// Real WAN faults are rarely symmetric (asymmetric routing, unidirectional
// congestion), and one-way loss exercises failure-detection paths that
// symmetric partitions cannot.
func (n *Network) PartitionOneWay(a, b NodeID) {
	n.partitioned[[2]NodeID{a, b}] = true
}

// HealOneWay removes the a→b block, leaving any b→a block in place.
func (n *Network) HealOneWay(a, b NodeID) {
	delete(n.partitioned, [2]NodeID{a, b})
}

// SlowLink adds extra one-way latency to every message from a to b,
// modeling a congested or degraded link. It stacks with the topology
// latency and jitter. Zero or negative extra clears the link.
func (n *Network) SlowLink(a, b NodeID, extra sim.Duration) {
	if extra <= 0 {
		delete(n.slowLinks, [2]NodeID{a, b})
		return
	}
	n.slowLinks[[2]NodeID{a, b}] = extra
}

// HealLink removes extra latency in both directions between a and b.
func (n *Network) HealLink(a, b NodeID) {
	delete(n.slowLinks, [2]NodeID{a, b})
	delete(n.slowLinks, [2]NodeID{b, a})
}

// WAN reports whether traffic between the two nodes crosses regions.
func (n *Network) WAN(a, b NodeID) bool {
	la, oka := n.Topo.LocalityOf(a)
	lb, okb := n.Topo.LocalityOf(b)
	return oka && okb && la.Region != lb.Region
}

func (n *Network) blocked(from, to NodeID) bool {
	if len(n.downNodes)+len(n.partitioned)+len(n.downRegions) == 0 {
		return false // no fault installed: the common case, and no map probed
	}
	if n.downNodes[from] || n.downNodes[to] {
		return true
	}
	if n.partitioned[[2]NodeID{from, to}] {
		return true
	}
	if len(n.downRegions) > 0 {
		if lf, ok := n.Topo.LocalityOf(from); ok && n.downRegions[lf.Region] {
			return true
		}
		if lt, ok := n.Topo.LocalityOf(to); ok && n.downRegions[lt.Region] {
			return true
		}
	}
	return false
}

// delay computes the one-way latency for a message, with jitter.
func (n *Network) delay(from, to NodeID) sim.Duration {
	base := n.Topo.OneWay(from, to)
	if n.Topo.Jitter > 0 {
		// Uniform in [1-j, 1+j].
		f := 1 + n.Topo.Jitter*(2*n.jitter.Float64()-1)
		base = sim.Duration(float64(base) * f)
	}
	if base < 10*sim.Microsecond {
		base = 10 * sim.Microsecond
	}
	return base + n.slowLinks[[2]NodeID{from, to}]
}

// maxFreeFlights caps the free list of in-flight records; a burst that puts
// more messages than this in flight at once gives the excess back to the
// collector.
const maxFreeFlights = 1024

// flight is one plain message between Send and its delivery. Records are
// recycled through Network.free, and the callback queued for the delivery is
// the record's own arrive method, bound once when the record is made: a
// message in flight allocates nothing.
type flight struct {
	net     *Network
	msg     Message
	deliver func() // f.arrive
}

// Send delivers payload to the destination node's handler after the
// topology-derived one-way delay. Messages to crashed or partitioned nodes
// are silently dropped, as on a real network.
func (n *Network) Send(from, to NodeID, payload interface{}) {
	n.MessagesSent++
	m := n.metrics()
	m.send.Inc()
	wan := n.WAN(from, to)
	if wan {
		m.sendWAN.Inc()
	}
	n.countSent(payload, wan)
	if n.blocked(from, to) {
		n.MessagesDropped++
		return
	}
	var f *flight
	if k := len(n.free); k > 0 {
		f = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		f = &flight{net: n}
		f.deliver = f.arrive
	}
	f.msg = Message{From: from, To: to, Payload: payload}
	n.Sim.After(n.delay(from, to), f.deliver)
}

// countSent adds one message of payload's type to sentByType.
func (n *Network) countSent(payload interface{}, wan bool) {
	t := reflect.TypeOf(payload)
	c := n.sentByType[t]
	if c == nil {
		if n.sentByType == nil {
			n.sentByType = map[reflect.Type]*[2]int64{}
		}
		c = new([2]int64)
		n.sentByType[t] = c
	}
	if wan {
		c[1]++
	} else {
		c[0]++
	}
}

// SentByType returns MessagesSent by payload type name: local ([0]) and WAN
// ([1]). A request sent with SendRPC counts once, under its payload's type.
func (n *Network) SentByType() map[string][2]int64 {
	out := make(map[string][2]int64, len(n.sentByType))
	for t, c := range n.sentByType {
		out[t.String()] = *c
	}
	return out
}

// arrive is the delivery event. The record goes back to the free list first,
// so a handler that sends finds it there.
func (f *flight) arrive() {
	n, msg := f.net, f.msg
	f.msg = Message{}
	if len(n.free) < maxFreeFlights {
		n.free = append(n.free, f)
	}
	n.deliver(msg)
}

// deliver hands msg to its destination's handler, unless the link is blocked
// by now (the destination may have crashed while the message was in flight)
// or nobody listens there: then the message is dropped.
func (n *Network) deliver(msg Message) {
	if n.blocked(msg.From, msg.To) {
		n.MessagesDropped++
		return
	}
	h, ok := n.handlers[msg.To]
	if !ok {
		n.MessagesDropped++
		return
	}
	h(msg)
}

// RPCRequest is one request/response exchange: the request, the slot its
// reply lands in and the caller waiting on that slot are a single record, and
// a round trip is two events — the request's delivery, which starts Proc, and
// the reply's, which resumes the caller — with nothing left queued after it.
//
// Records are recycled through Network.freeRPCs, and the two delivery
// callbacks are the record's own methods, bound once when it is made, so a
// round trip allocates nothing. A record goes back only once its reply has
// landed, which is after the handler's Reply, its last touch. A record whose
// caller timed out, or whose request or reply was dropped, is never reused:
// its handler may still be running, and a late Reply then writes only into a
// record nobody reads.
type RPCRequest struct {
	From    NodeID
	Payload interface{}
	// Proc is the process the request was delivered on, started for it at
	// the delivery instant. The handler runs on it and may block on it.
	Proc *sim.Proc

	net     *Network
	to      NodeID
	replied bool
	resp    interface{}
	reply   sim.Future[interface{}] // fulfilled by the reply's delivery
	serveFn func(*sim.Proc)         // r.serve
	landFn  func()                  // r.land
}

// maxFreeRPCs caps the free list of exchange records.
const maxFreeRPCs = 128

// newRPC returns a cleared exchange record, recycled if one is free.
func (n *Network) newRPC() *RPCRequest {
	if k := len(n.freeRPCs); k > 0 {
		r := n.freeRPCs[k-1]
		n.freeRPCs[k-1] = nil
		n.freeRPCs = n.freeRPCs[:k-1]
		return r
	}
	r := &RPCRequest{net: n}
	r.serveFn, r.landFn = r.serve, r.land
	return r
}

// recycle clears the record of an exchange whose reply landed, so it pins
// neither request nor reply, and keeps it unless the list is full.
func (n *Network) recycle(r *RPCRequest) {
	r.From, r.Payload, r.Proc, r.to, r.replied, r.resp = 0, nil, nil, 0, false, nil
	r.reply = sim.Future[interface{}]{}
	if len(n.freeRPCs) < maxFreeRPCs {
		n.freeRPCs = append(n.freeRPCs, r)
	}
}

// serve is the request's delivery, the body of Proc.
func (r *RPCRequest) serve(p *sim.Proc) {
	r.Proc = p
	r.net.deliver(Message{From: r.From, To: r.to, Payload: r})
}

// Reply sends the response back to the caller with network latency. A request
// is answered once: later calls are ignored. It is the handler's last touch of
// the request (see RPCRequest).
func (r *RPCRequest) Reply(resp interface{}) {
	if r.replied {
		return
	}
	r.replied = true
	n := r.net
	if n.blocked(r.to, r.From) {
		n.MessagesDropped++
		return
	}
	r.resp = resp
	n.Sim.After(n.delay(r.to, r.From), r.landFn)
}

// land is the reply's delivery: it hands the response to the caller and runs
// it, as the event's last action.
func (r *RPCRequest) land() {
	if r.net.blocked(r.to, r.From) {
		return
	}
	r.reply.Deliver(r.resp)
}

// ErrRPC represents an RPC transport failure: the destination was unreachable
// when the request was sent, or no reply came within Timeout. Its text is
// built when asked for, not on every failed attempt.
type ErrRPC struct {
	From, To NodeID
	// Timeout is the wait that expired; zero when To was unreachable.
	Timeout sim.Duration
}

func (e *ErrRPC) Error() string {
	if e.Timeout == 0 {
		return fmt.Sprintf("rpc: node %d unreachable from %d", e.To, e.From)
	}
	return fmt.Sprintf("rpc: timeout after %s calling node %d", e.Timeout, e.To)
}

// SendRPC issues a request to the destination node and parks p until a reply
// arrives or the timeout expires. The destination handler receives an
// *RPCRequest payload, on a process of its own, and must call Reply.
func (n *Network) SendRPC(p *sim.Proc, from, to NodeID, payload interface{}, timeout sim.Duration) (interface{}, error) {
	return n.SendRPCWhileLive(p, from, to, payload, timeout, nil)
}

// SendRPCWhileLive is SendRPC that also gives up on a destination presumed
// dead. liveUntil(to) is the last instant the destination's liveness record
// vouches for it (ok false: it bounds nothing). The wait ends at the sooner
// of the timeout and that instant's end, and re-arms while the record is
// renewed, so a live destination's slow reply is never abandoned; one whose
// record lapses is given up on at once, as a timeout would (the request may
// still be served). A record already lapsed when the request is sent bounds
// nothing: the caller chose the destination knowing that.
func (n *Network) SendRPCWhileLive(p *sim.Proc, from, to NodeID, payload interface{}, timeout sim.Duration, liveUntil func(NodeID) (sim.Time, bool)) (interface{}, error) {
	wan := n.WAN(from, to)
	m := n.metrics()
	m.rpc.Inc()
	if wan {
		m.rpcWAN.Inc()
	}
	sp := n.Tracer.StartChild("net.rpc", obs.ProcSpan(p))
	if sp != nil {
		sp.SetTagInt("from", int64(from)).SetTagInt("to", int64(to))
		if lf, ok := n.Topo.LocalityOf(from); ok {
			sp.SetTag("from_region", string(lf.Region))
		}
		if lt, ok := n.Topo.LocalityOf(to); ok {
			sp.SetTag("to_region", string(lt.Region))
		}
		sp.SetTag("wan", fmt.Sprintf("%t", wan))
		sp.SetTagDuration("link_rtt", n.Topo.NodeRTT(from, to))
	}
	n.MessagesSent++
	n.countSent(payload, wan)
	if n.blocked(from, to) {
		n.MessagesDropped++
		err := &ErrRPC{From: from, To: to}
		sp.SetError(err)
		sp.Finish()
		return nil, err
	}
	d := n.delay(from, to)
	sp.SetTagDuration("req_delay", d)
	req := n.newRPC()
	req.From, req.Payload, req.to = from, payload, to
	start := n.Sim.Now()
	n.Sim.SpawnAt(start.Add(d), "net/rpc", req.serveFn)
	if timeout <= 0 {
		timeout = 10 * sim.Second
	}
	end := start.Add(timeout)
	if liveUntil != nil {
		if exp, ok := liveUntil(to); !ok || exp < start {
			liveUntil = nil
		}
	}
	var v interface{}
	ok := false
	for {
		until := end
		if liveUntil != nil {
			exp, _ := liveUntil(to)
			if exp < n.Sim.Now() {
				break // the record lapsed: the destination is presumed dead
			}
			if exp < until {
				until = exp.Add(1)
			}
		}
		if v, ok = req.reply.WaitTimeout(p, until.Sub(n.Sim.Now())); ok || n.Sim.Now() >= end {
			break
		}
	}
	m.rtt.RecordDuration(n.Sim.Now().Sub(start))
	if !ok {
		err := &ErrRPC{From: from, To: to, Timeout: n.Sim.Now().Sub(start)}
		sp.SetError(err)
		sp.Finish()
		return nil, err
	}
	n.recycle(req)
	sp.Finish()
	return v, nil
}
