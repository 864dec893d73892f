package serve

import "selflearn/internal/signal"

// Option configures a Server beyond the capacity knobs in Config:
// pluggable policy objects live here so Config stays a plain,
// serializable sizing struct.
type Option func(*serverOptions)

type serverOptions struct {
	store       ModelStore
	admission   AdmissionPolicy
	quality     *signal.QualityConfig
	eventBuffer int
	sink        func(Event)
}

func defaultServerOptions() serverOptions {
	return serverOptions{
		admission:   DropOnFull(),
		eventBuffer: 256,
	}
}

// WithModelStore installs the persistence layer behind the model cache.
// Without one, trained models live only in the bounded LRU
// (Config.ModelCacheSize caps model memory; eviction loses the model).
// NewFileStore keeps every trained patient's model on disk, across
// evictions and restarts.
func WithModelStore(st ModelStore) Option {
	return func(o *serverOptions) {
		if st != nil {
			o.store = st
		}
	}
}

// WithAdmission sets the server-wide admission policy applied when a
// shard queue is full. Default: DropOnFull(). Every stream of the
// server uses it.
func WithAdmission(p AdmissionPolicy) Option {
	return func(o *serverOptions) {
		if p != nil {
			o.admission = p
		}
	}
}

// WithQualityGate installs quality-aware admission on the serving path:
// every batch is assessed on its shard worker before feature extraction
// with internal/signal's channel quality check, and is admitted only
// when BOTH electrode channels pass cfg's flatline and clipping
// thresholds — the paper's 10-feature set mixes both channels, so one
// garbage electrode poisons every feature. A refused batch never
// reaches the feature streamer (the session's window stream simply
// skips the garbage second, exactly as if the wearable had never
// recorded it), is counted in Stats.QualityRejected and the owning
// stream's StreamStats.QualityRejected, and is announced as an
// EventQualityReject. New rejects an invalid cfg. Without the option,
// every accepted batch is processed.
func WithQualityGate(cfg signal.QualityConfig) Option {
	return func(o *serverOptions) { o.quality = &cfg }
}

// WithEventBuffer sizes the Events subscriber channel (default 256). A
// subscriber that lags this far behind loses events, counted in
// Stats.EventsDropped.
func WithEventBuffer(n int) Option {
	return func(o *serverOptions) {
		if n > 0 {
			o.eventBuffer = n
		}
	}
}

// WithEventSink registers a synchronous callback invoked for every
// event, in emission order per shard. It runs on serving goroutines:
// it must be fast and must never block, or it stalls the hot path.
// Unlike the Events channel, a sink never drops events.
func WithEventSink(fn func(Event)) Option {
	return func(o *serverOptions) { o.sink = fn }
}
