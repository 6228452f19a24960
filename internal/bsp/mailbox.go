package bsp

// envelope is one routed message: a destination vertex and its payload.
type envelope[M any] struct {
	To  VertexID
	Msg M
}

// mailbox moves one superstep's cross-shard message batches by reference
// through a (source, dest) matrix. send writes row src during the compute
// phase (each source worker owns its row); after the superstep barrier
// recv drains column dst. Batches are owned by the sending worker and
// reused after the next barrier. The per-destination collect buffers are
// reused too, so steady-state supersteps allocate nothing.
type mailbox[M any] struct {
	slots [][][]envelope[M] // [src][dst] -> batch
	out   [][][]envelope[M] // [dst] reusable collect scratch
}

func newMailbox[M any](shards int) mailbox[M] {
	m := mailbox[M]{
		slots: make([][][]envelope[M], shards),
		out:   make([][][]envelope[M], shards),
	}
	for i := range m.slots {
		m.slots[i] = make([][]envelope[M], shards)
		m.out[i] = make([][]envelope[M], 0, shards)
	}
	return m
}

// send records src's batch for dst. Safe for concurrent use across
// distinct src values.
func (m *mailbox[M]) send(src, dst int, batch []envelope[M]) {
	m.slots[src][dst] = batch
}

// recv drains and returns dst's batches in ascending source-shard order
// — the engine's canonical delivery order; a batch is delivered exactly
// once. Safe for concurrent use across distinct dst values.
func (m *mailbox[M]) recv(dst int) [][]envelope[M] {
	out := m.out[dst][:0]
	for src := range m.slots {
		if b := m.slots[src][dst]; len(b) > 0 {
			out = append(out, b)
			m.slots[src][dst] = nil
		}
	}
	m.out[dst] = out
	return out
}
