// Metric names for the journal layer.
//
// Every runstore metric is runtime-class, and necessarily so: the
// store's whole point is that a resumed run does LESS I/O than an
// uninterrupted one — it replays instead of rewriting — so records
// written, replayed, and truncated differ between the two runs by
// construction. Putting any of them in the deterministic class would
// break the resume contract (crash → reopen → resume snapshots
// byte-identically to an uninterrupted run) the chaos matrix enforces.
// The deterministic view of a journaled scan is carried by the engine's
// own metrics, which replay restores; the store only describes its own
// I/O.
package runstore

const (
	// MetRecordsWritten counts records appended to the journal.
	MetRecordsWritten = "runstore.records.written"
	// MetRecordsReplayed counts sample records replayed into a sink on
	// resume.
	MetRecordsReplayed = "runstore.records.replayed"
	// MetRecordsRead counts records decoded while replaying phases on
	// resume: each phase's own records up to its last checkpointed
	// sample (recovery's pass at Open is not counted).
	MetRecordsRead = "runstore.records.read"
	// MetRecordsTruncated counts records dropped by recovery: the torn
	// record at a crashed tail plus any orphan samples of a shard that
	// never reached its checkpoint.
	MetRecordsTruncated = "runstore.records.truncated"
	// MetFsyncLatency is the fsync latency histogram, in microseconds.
	MetFsyncLatency = "runstore.fsync.latency_us"
)
