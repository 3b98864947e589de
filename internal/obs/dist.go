package obs

// DistMetrics instruments the remote stripe coordinator
// (internal/dist). ClassRuntime throughout: retry counts, hedge
// counts, byte totals, and the local/remote split all depend on wall
// clock, scheduling, and injected transport faults, and none of them
// changes the bytes a served stripe comes back with.
type DistMetrics struct {
	// Shards counts stripe jobs entering the coordinator (one per
	// StripeJob handed to RunStripe, however it is eventually served).
	// Local counts the subset computed in-process: the no-fleet path
	// and the drain/exhaustion fallback. Shards − Local jobs were
	// completed by a remote worker.
	Shards, Local *Counter
	// Retries counts shard re-queues caused by transport failure
	// (connection error, lease expiry, corrupt or short frame);
	// Hedges counts speculative re-queues of straggling shards. Both
	// may exceed Shards under sustained faults — every additional
	// serve attempt of the same shard counts.
	Retries, Hedges *Counter
	// Bytes totals wire traffic in both directions across all worker
	// connections, as counted under the fault injectors (what the
	// network actually carried, not what the codec produced).
	Bytes *Counter
	// Workers is the high-water count of concurrently connected
	// workers.
	Workers *Gauge
}

// NewDistMetrics registers the dist.* metric set in r. The coordinator
// holds its own Registry — dist metrics never join a decode Pipeline,
// so golden-trace stats snapshots are untouched by distribution.
func NewDistMetrics(r *Registry) DistMetrics {
	return DistMetrics{
		Shards:  r.Counter("dist.shards", ClassRuntime),
		Local:   r.Counter("dist.local", ClassRuntime),
		Retries: r.Counter("dist.retries", ClassRuntime),
		Hedges:  r.Counter("dist.hedges", ClassRuntime),
		Bytes:   r.Counter("dist.bytes", ClassRuntime),
		Workers: r.Gauge("dist.workers", ClassRuntime),
	}
}
