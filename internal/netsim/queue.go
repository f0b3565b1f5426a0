package netsim

// Queue is an egress queue discipline. Enqueue may mutate the packet
// (trimming) and reports whether the packet was kept in any form;
// Dequeue returns nil when empty.
type Queue interface {
	Enqueue(p *Packet) bool
	Dequeue() *Packet
	Len() int
	Stats() QueueStats
}

// QueueStats counts what happened to packets at this queue, plus the
// two fault counters. Queue disciplines themselves never fill the
// fault fields: Port.QueueStats fills LinkDrops (that port's Lost),
// and Network.QueueTotals additionally aggregates per-switch
// RouteDrops blackholes and host-NIC losses.
type QueueStats struct {
	Enqueued   int64
	Dropped    int64
	Trimmed    int64
	Marked     int64
	RouteDrops int64
	LinkDrops  int64
}

// fifo is a slice-backed ring-free FIFO; head compaction keeps
// amortised cost O(1) without a container dependency. pop on an empty
// fifo returns the zero T (nil for the packet queues).
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) push(v T) { f.buf = append(f.buf, v) }

func (f *fifo[T]) pop() T {
	var zero T
	if f.head >= len(f.buf) {
		return zero
	}
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head++
	if f.head > 64 && f.head*2 >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	return v
}

// back returns the most recently pushed element; the fifo must be
// non-empty.
func (f *fifo[T]) back() *T { return &f.buf[len(f.buf)-1] }

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

// DropTail is the classic single FIFO with a packet-count capacity —
// the TCP baseline's switch queue. With a non-zero mark threshold it
// additionally sets the CE codepoint on ECN-capable packets when the
// instantaneous occupancy reaches the threshold (DCTCP-style marking,
// Alizadeh et al., SIGCOMM 2010).
type DropTail struct {
	cap   int
	markK int
	q     fifo[*Packet]
	stats QueueStats
}

// NewDropTail returns a drop-tail queue holding at most capacity
// packets.
func NewDropTail(capacity int) *DropTail {
	return &DropTail{cap: capacity}
}

// NewECNDropTail returns a drop-tail queue that marks ECN-capable
// packets once occupancy reaches markThreshold packets.
func NewECNDropTail(capacity, markThreshold int) *DropTail {
	return &DropTail{cap: capacity, markK: markThreshold}
}

func (d *DropTail) Enqueue(p *Packet) bool {
	if d.q.len() >= d.cap {
		d.stats.Dropped++
		return false
	}
	if d.markK > 0 && p.ECNCapable && d.q.len() >= d.markK {
		p.ECNMarked = true
		d.stats.Marked++
	}
	d.q.push(p)
	d.stats.Enqueued++
	return true
}

func (d *DropTail) Dequeue() *Packet  { return d.q.pop() }
func (d *DropTail) Len() int          { return d.q.len() }
func (d *DropTail) Stats() QueueStats { return d.stats }

// TrimQueue is NDP's switch queue: a very short data queue plus a
// larger strict-priority header queue. When the data queue is full an
// arriving data packet is trimmed to its header and queued with
// priority, so the receiver learns of the loss within one RTT instead
// of waiting for a timeout; headers, pulls and acks always use the
// priority queue. This is the mechanism the paper credits for
// Polyraptor's Incast elimination and shallow-buffer operation.
type TrimQueue struct {
	dataCap   int
	headerCap int
	data      fifo[*Packet]
	header    fifo[*Packet]
	stats     QueueStats
}

// NewTrimQueue returns an NDP-style queue. dataCap is deliberately
// small (NDP uses 8 full-size packets); headerCap bounds the priority
// queue (headers are 64B, so even hundreds occupy little buffer).
func NewTrimQueue(dataCap, headerCap int) *TrimQueue {
	return &TrimQueue{dataCap: dataCap, headerCap: headerCap}
}

func (t *TrimQueue) Enqueue(p *Packet) bool {
	if p.priority() {
		if t.header.len() >= t.headerCap {
			t.stats.Dropped++
			return false
		}
		t.header.push(p)
		t.stats.Enqueued++
		return true
	}
	if t.data.len() >= t.dataCap {
		// Trim: payload is cut, header survives with priority.
		if t.header.len() >= t.headerCap {
			t.stats.Dropped++
			return false
		}
		p.trim()
		t.header.push(p)
		t.stats.Trimmed++
		t.stats.Enqueued++
		return true
	}
	t.data.push(p)
	t.stats.Enqueued++
	return true
}

func (t *TrimQueue) Dequeue() *Packet {
	if p := t.header.pop(); p != nil {
		return p
	}
	return t.data.pop()
}

func (t *TrimQueue) Len() int          { return t.data.len() + t.header.len() }
func (t *TrimQueue) Stats() QueueStats { return t.stats }
