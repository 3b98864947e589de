package obs

// GateMetrics instruments the reader gateway (internal/gate).
// ClassRuntime throughout, in the gateway's own Registry — like
// dist.*, these observe transport and scheduling (connection counts,
// wire bytes, session memory) and never influence a decoded bit, so
// each reader session's decode-class stats identity matches a local
// decode of the same capture.
type GateMetrics struct {
	// Readers counts reader sessions admitted (one per distinct
	// (reader, capture nonce) pair, however many reconnects serve it).
	Readers *Counter
	// Frames counts decoded frames published to sinks, across all
	// readers and sinks-fanout counts once per frame.
	Frames *Counter
	// Bytes totals wire traffic in both directions across all reader
	// connections, as counted under the fault injectors (what the
	// network actually carried, not what the codec produced).
	Bytes *Counter
	// SinkErrors counts frame publishes a sink rejected (logged and
	// dropped by that sink only — ingest is never failed by a sink).
	SinkErrors *Counter
	// Connected is the high-water count of concurrently connected
	// reader connections.
	Connected *Gauge
	// RetainedPeak is the high-water per-session RetainedBytes, read
	// just before each chunk is pushed: the decoder's resident window,
	// or O(capture) with SIC enabled. It observes memory; nothing
	// throttles on it.
	RetainedPeak *Gauge
}

// NewGateMetrics registers the gate.* metric set in r.
func NewGateMetrics(r *Registry) GateMetrics {
	return GateMetrics{
		Readers:      r.Counter("gate.readers", ClassRuntime),
		Frames:       r.Counter("gate.frames", ClassRuntime),
		Bytes:        r.Counter("gate.bytes", ClassRuntime),
		SinkErrors:   r.Counter("gate.sink_errors", ClassRuntime),
		Connected:    r.Gauge("gate.connected", ClassRuntime),
		RetainedPeak: r.Gauge("gate.retained_peak", ClassRuntime),
	}
}
