package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"mrdb/internal/sim"
)

// Input generation. Every operation a workload will issue — its class,
// key, value tag and (open loop) due time — is drawn here from math/rand
// sources seeded by -seed, before any cluster exists. The simulator only
// ever sees the finished lists: a change to the program's event order
// cannot change what the benchmark asks of it.

type opKind uint8

const (
	kindRead        opKind = iota // point SELECT by primary key
	kindUpdate                    // single-row UPDATE / UPSERT of field0
	kindNewOrder                  // TPC-C New-Order
	kindPayment                   // TPC-C Payment
	kindOrderStatus               // TPC-C Order-Status
)

// class is the latency class an op reports under.
type class uint8

const (
	classRead class = iota
	classWrite
	numClasses
)

func (c class) String() string {
	if c == classRead {
		return "read"
	}
	return "write"
}

func (k opKind) class() class {
	if k == kindRead || k == kindOrderStatus {
		return classRead
	}
	return classWrite
}

// orderLine is one pre-drawn New-Order line.
type orderLine struct {
	Item    int32
	Qty     int32
	StockWH int32
}

// tpccArgs carries the pre-drawn parameters of one TPC-C transaction.
type tpccArgs struct {
	District int32
	Customer int32
	HistSeq  int32 // Payment: unique history key
	Amount   float64
	Lines    []orderLine // New-Order only
}

// op is one pre-generated operation.
type op struct {
	Kind opKind
	// Key is the YCSB row index, or the TPC-C home warehouse.
	Key int32
	// Tag identifies an update's value: the row is set to valueOf(Tag), so
	// a final read names the update that won.
	Tag uint32
	// Due is the open-loop due time as an offset from the window opening
	// (zero in closed-loop workloads).
	Due  sim.Duration
	TPCC *tpccArgs
}

// client is one simulated client: a gateway region and its op list. Closed
// loops run the list back to back; the open loop issues each op at its Due.
type client struct {
	Region int // index into the cluster's region list
	Ops    []op
}

// input is everything a workload run consumes.
type input struct {
	Workload string
	Seed     int64
	Clients  []client
}

// ops returns the total op count.
func (in *input) ops() int {
	n := 0
	for _, c := range in.Clients {
		n += len(c.Ops)
	}
	return n
}

// encode renders the input canonically; equal seeds must give equal bytes.
func (in *input) encode() []byte {
	buf := []byte(fmt.Sprintf("%s/%d/%d\n", in.Workload, in.Seed, len(in.Clients)))
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	for _, c := range in.Clients {
		u64(uint64(c.Region))
		u64(uint64(len(c.Ops)))
		for _, o := range c.Ops {
			u64(uint64(o.Kind)<<32 | uint64(uint32(o.Key)))
			u64(uint64(o.Tag))
			u64(uint64(o.Due))
			if t := o.TPCC; t != nil {
				u64(uint64(t.District)<<40 | uint64(t.Customer)<<20 | uint64(t.HistSeq))
				u64(uint64(int64(t.Amount * 100)))
				for _, l := range t.Lines {
					u64(uint64(l.Item)<<32 | uint64(l.Qty)<<16 | uint64(l.StockWH))
				}
			}
		}
	}
	return buf
}

// digest is the FNV-1a hash of encode().
func (in *input) digest() uint64 {
	h := fnv.New64a()
	h.Write(in.encode())
	return h.Sum64()
}

// valueOf is the field0 value update Tag writes.
func valueOf(tag uint32) string { return fmt.Sprintf("u%08d", tag) }

// loadedValue is the field0 value row i is bulk-loaded with.
func loadedValue(i int) string { return fmt.Sprintf("v%08d", i) }

// clientRand derives an independent stream per (seed, workload, client).
func clientRand(seed int64, workload string, client int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, workload, client)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// ycsbShape parameterizes the YCSB-style generators.
type ycsbShape struct {
	Regions   int
	Rows      int
	Clients   int // total, spread round-robin over regions
	OpsPerCli int
	WriteFrac float64
	// LocalFrac > 0 draws that share of keys from the client's own block of
	// the blocked layout (rows/regions consecutive rows per region) and the
	// rest from the next region's block. One remote region per client
	// region makes each client's remote latency a single RTT plateau, and
	// the remote share is chosen so that the p99 of both classes falls
	// inside the slowest plateau, not on the boundary between two, where
	// sampling noise would flip it from seed to seed.
	LocalFrac float64
	Zipf      bool
}

func genYCSB(name string, seed int64, sh ycsbShape) *input {
	in := &input{Workload: name, Seed: seed}
	block := sh.Rows / sh.Regions
	tag := uint32(0)
	for ci := 0; ci < sh.Clients; ci++ {
		rng := clientRand(seed, name, ci)
		region := ci % sh.Regions
		var zipf *rand.Zipf
		if sh.Zipf {
			zipf = rand.NewZipf(rng, 1.01, 1, uint64(sh.Rows-1))
		}
		c := client{Region: region, Ops: make([]op, sh.OpsPerCli)}
		for i := range c.Ops {
			o := &c.Ops[i]
			if rng.Float64() < sh.WriteFrac {
				o.Kind = kindUpdate
				tag++
				o.Tag = tag
			}
			switch {
			case sh.Zipf:
				// Scatter ranks over the keyspace so the hot rows are not
				// neighbours in one leaf of the skiplist.
				o.Key = int32(zipf.Uint64() * 2654435761 % uint64(sh.Rows))
			case sh.LocalFrac > 0:
				home := region
				if rng.Float64() >= sh.LocalFrac {
					home = (region + 1) % sh.Regions
				}
				o.Key = int32(home*block + rng.Intn(block))
			default:
				o.Key = int32(rng.Intn(sh.Rows))
			}
		}
		in.Clients = append(in.Clients, c)
	}
	return in
}

// openLoopShape parameterizes the scheduled (open-loop) generator.
type openLoopShape struct {
	Regions  int
	Rows     int
	Interval sim.Duration // one op per region per Interval
	Horizon  sim.Duration
	// No op is due in the Quiet before QuietEnd (the crash): an op in flight
	// when its leaseholder dies has an ambiguous outcome — the ack dies
	// with the node — and an ambiguous result is an error in any database.
	// The workload measures failover, so the schedule pauses just long
	// enough for in-flight ops to finish, then resumes at the crash.
	QuietEnd, Quiet sim.Duration
}

func genOpenLoop(name string, seed int64, sh openLoopShape) *input {
	in := &input{Workload: name, Seed: seed}
	n := int(sh.Horizon / sh.Interval)
	tag := uint32(0)
	for r := 0; r < sh.Regions; r++ {
		rng := clientRand(seed, name, r)
		c := client{Region: r, Ops: make([]op, n)}
		for i := range c.Ops {
			o := &c.Ops[i]
			// Stagger regions inside the interval so due times never tie.
			o.Due = sim.Duration(i)*sh.Interval + sim.Duration(r)*sh.Interval/sim.Duration(sh.Regions)
			if o.Due >= sh.QuietEnd-sh.Quiet {
				o.Due += sh.Quiet
			}
			o.Key = int32(rng.Intn(sh.Rows))
			if rng.Float64() < 0.5 {
				o.Kind = kindUpdate
				tag++
				o.Tag = tag
			}
		}
		in.Clients = append(in.Clients, c)
	}
	return in
}

// tpccShape mirrors the fields of workload.TPCCConfig the generator needs.
type tpccShape struct {
	// Regions is also the number of terminals: one per region. The loaded
	// data must hold at least two warehouses per region.
	Regions         int
	Districts       int
	Customers       int
	Items           int
	TxnsPerTerminal int
	RemoteFrac      float64
}

func genTPCC(name string, seed int64, sh tpccShape) *input {
	in := &input{Workload: name, Seed: seed}
	hist := int32(0)
	for term := 0; term < sh.Regions; term++ {
		rng := clientRand(seed, name, term)
		region := term
		c := client{Region: region, Ops: make([]op, sh.TxnsPerTerminal)}
		// New-Order : Payment : Order-Status = 1 : 1 : 2, so the read class
		// and the write class are the same size, in a per-terminal shuffled
		// order.
		mix := [4]opKind{kindNewOrder, kindOrderStatus, kindPayment, kindOrderStatus}
		kinds := make([]opKind, sh.TxnsPerTerminal)
		for i := range kinds {
			kinds[i] = mix[i%len(mix)]
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		// Exactly RemoteFrac of the terminal's New-Orders carry a remote
		// stock line, at shuffled positions. A remote New-Order takes ~50x
		// the virtual time of a local one, so drawing each independently
		// would let their count — not the system — set the window's length.
		newOrders := sh.TxnsPerTerminal / len(mix)
		remote := make([]bool, newOrders)
		for i := 0; i < int(float64(newOrders)*sh.RemoteFrac+0.5); i++ {
			remote[i] = true
		}
		rng.Shuffle(len(remote), func(i, j int) { remote[i], remote[j] = remote[j], remote[i] })
		for i := range c.Ops {
			o := &c.Ops[i]
			o.Kind = kinds[i]
			// Warehouse w lives in region w mod R (region_from_warehouse).
			// As in the TPC-C specification a terminal is bound to one
			// warehouse: terminal t to warehouse t, the first of region t.
			// Remote stock lines go to the *second* warehouse of the next
			// region, which no terminal calls home. No two terminals ever
			// touch the same row, so there are no restarts, and every
			// latency is set by the system's path lengths, not by which
			// transactions happened to collide under this seed.
			w := region
			o.Key = int32(w)
			t := &tpccArgs{
				District: int32(rng.Intn(sh.Districts)),
				Customer: int32(rng.Intn(sh.Customers)),
			}
			o.TPCC = t
			switch o.Kind {
			case kindPayment:
				hist++
				t.HistSeq = hist
				t.Amount = 1 + float64(rng.Intn(5000))/100
			case kindNewOrder:
				t.Lines = make([]orderLine, 5+rng.Intn(11))
				for l := range t.Lines {
					t.Lines[l] = orderLine{
						Item:    int32(rng.Intn(sh.Items)),
						Qty:     int32(1 + rng.Intn(10)),
						StockWH: int32(w),
					}
				}
				if remote[0] {
					t.Lines[rng.Intn(len(t.Lines))].StockWH = int32((w+1)%sh.Regions + sh.Regions)
				}
				remote = remote[1:]
			}
		}
		in.Clients = append(in.Clients, c)
	}
	return in
}
