package edge

import (
	"fmt"
	"math"
	"time"

	"repro/internal/fault"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Streaming telemetry. Latency is the wall-clock cost of one Process call
// (extraction + normalisation + inference) in microseconds; energy is the
// cumulative modelled on-device energy (J) of the horizons processed so
// far, i.e. the running MPC·MTC integral of the paper's Table II.
var (
	// Latency is labeled by the simulated device so mixed-device
	// deployments stay separable in one scrape (Prometheus form:
	// edge_monitor_latency_us_bucket{device="...",le="..."}).
	hMonLatencyVec  = obs.GetHistogramVec("edge.monitor.latency_us", obs.ExpBuckets(1, 2, 24), "device")
	mMonHorizons    = obs.GetCounter("edge.monitor.horizons")
	mMonTransitions = obs.GetCounter("edge.monitor.alarm_transitions")
	mMonDropouts    = obs.GetCounter("edge.monitor.channel_dropouts")
	mMonClamped     = obs.GetCounter("edge.monitor.clamped_features")
	gMonEnergyJ     = obs.GetGauge("edge.monitor.energy_j")
	gMonDeviceS     = obs.GetGauge("edge.monitor.device_infer_s")
)

// Monitor turns a deployment into a continuous fear monitor: raw signal
// chunks stream in, feature maps are extracted over a sliding horizon, and
// an exponentially smoothed fear probability with hysteresis drives an
// alarm — the end-to-end loop the paper's motivating application (a
// wearable that detects fear episodes in real time) runs on-device.
type Monitor struct {
	dep  *Deployment
	norm Normalizer
	ecfg features.ExtractorConfig
	// hLat is the device-labeled latency child, hoisted at construction so
	// the per-horizon path pays no label lookup.
	hLat *obs.Histogram

	// Smoothing and hysteresis parameters.
	Alpha   float64 // EWMA factor for the fear probability (0..1]
	OnThr   float64 // alarm turns on when smoothed prob rises above this
	OffThr  float64 // alarm turns off when it falls below this
	prob    float64
	alarmed bool
	nSeen   int

	// Per-monitor lifetime accounting (the global obs metrics aggregate
	// across every monitor in the process; these are this monitor's own,
	// and are what Reset clears when a session is recycled).
	stats MonitorStats

	// inferJ is the modelled per-horizon energy on this deployment's
	// device (TestS × MPCTestW), accumulated into the energy gauge.
	inferJ float64

	// Fault, when non-nil, arms fault injection on the monitor's ingest
	// path: fault.ChannelDropout blanks one raw sensor channel before
	// extraction, simulating a detached electrode or a dead BLE stream.
	// Nil costs one pointer check per horizon.
	Fault *fault.Injector
}

// MonitorStats is one monitor's own accounting since construction or the
// last Reset.
type MonitorStats struct {
	// Horizons counts processed recording horizons.
	Horizons int
	// Transitions counts alarm state changes.
	Transitions int
	// EnergyJ is the modelled on-device inference energy consumed.
	EnergyJ float64
}

// Normalizer matches features.Normalizer's Apply without importing the
// concrete type, so monitors work with any map normalisation.
type Normalizer interface {
	Apply(m *tensor.Tensor) *tensor.Tensor
}

// NewMonitor wraps a deployment for streaming use.
func NewMonitor(dep *Deployment, norm Normalizer, ecfg features.ExtractorConfig) *Monitor {
	cost := dep.Cost([]int{features.TotalFeatureCount, ecfg.Windows}, 1, 1)
	gMonDeviceS.Set(cost.TestS)
	return &Monitor{
		dep: dep, norm: norm, ecfg: ecfg,
		hLat:  hMonLatencyVec.With(dep.Device.Name),
		Alpha: 0.4, OnThr: 0.7, OffThr: 0.4,
		inferJ: cost.TestEnergyJ,
	}
}

// Event is the monitor's output for one processed recording horizon.
type Event struct {
	// Index counts processed horizons.
	Index int
	// RawProb is the classifier's fear probability for this horizon.
	RawProb float64
	// SmoothProb is the hysteresis input (EWMA of RawProb).
	SmoothProb float64
	// Alarm reports the hysteresis state after this horizon.
	Alarm bool
	// Changed reports whether this horizon toggled the alarm.
	Changed bool
}

// Process classifies one recording horizon and updates the alarm state.
// Non-finite extracted features (the numeric fallout of degenerate or
// injected-faulty signals) are clamped to zero — the feature's post-z-score
// mean — so one bad horizon perturbs, rather than poisons, the EWMA.
func (m *Monitor) Process(rec *features.Recording) (Event, error) {
	start := time.Now()
	if m.Fault.Fire(fault.ChannelDropout) {
		rec = dropChannel(rec, m.Fault.Intn(3))
		mMonDropouts.Inc()
	}
	fm, err := features.ExtractMap(rec, m.ecfg)
	if err != nil {
		return Event{}, fmt.Errorf("edge: monitor extraction: %w", err)
	}
	x := fm
	if m.norm != nil {
		x = m.norm.Apply(fm)
	}
	clampNonFinite(x)
	probs := m.dep.Model.Probabilities(x)
	raw := 0.0
	if len(probs) > 1 {
		raw = probs[1]
	}
	ev := m.Observe(raw)
	m.hLat.Observe(float64(time.Since(start).Microseconds()))
	return ev, nil
}

// Observe updates the smoothing and alarm state with an externally
// computed fear probability and returns the resulting event. It is the
// inference-free half of Process, for deployments where the forward pass
// happens elsewhere (e.g. batched across sessions by a serving layer) but
// the hysteresis and energy accounting still belong to this monitor.
func (m *Monitor) Observe(raw float64) Event {
	if m.nSeen == 0 {
		m.prob = raw
	} else {
		m.prob = m.Alpha*raw + (1-m.Alpha)*m.prob
	}
	m.nSeen++

	changed := false
	if !m.alarmed && m.prob >= m.OnThr {
		m.alarmed = true
		changed = true
	} else if m.alarmed && m.prob <= m.OffThr {
		m.alarmed = false
		changed = true
	}
	mMonHorizons.Inc()
	if changed {
		mMonTransitions.Inc()
	}
	gMonEnergyJ.Add(m.inferJ)
	m.stats.Horizons++
	if changed {
		m.stats.Transitions++
	}
	m.stats.EnergyJ += m.inferJ
	return Event{
		Index:      m.nSeen - 1,
		RawProb:    raw,
		SmoothProb: m.prob,
		Alarm:      m.alarmed,
		Changed:    changed,
	}
}

// Stats returns this monitor's own accounting since construction or the
// last Reset. The global obs metrics are process-wide aggregates and are
// deliberately not affected by Reset.
func (m *Monitor) Stats() MonitorStats { return m.stats }

// Reset returns the monitor to its just-constructed state so a recycled
// session starts clean: the EWMA history (including the first-sample
// seeding path), the alarm state, and the per-monitor stats all clear
// together. Only the process-global obs metrics keep accumulating.
func (m *Monitor) Reset() {
	m.prob = 0
	m.alarmed = false
	m.nSeen = 0
	m.stats = MonitorStats{}
}

// dropChannel returns a shallow copy of rec with one physiological channel
// (0 BVP, 1 GSR, 2 SKT) zeroed — the injected shape of a sensor dropout.
// The original recording is never mutated.
func dropChannel(rec *features.Recording, ch int) *features.Recording {
	out := *rec
	switch ch % 3 {
	case 0:
		out.BVP = make([]float64, len(rec.BVP))
	case 1:
		out.GSR = make([]float64, len(rec.GSR))
	case 2:
		out.SKT = make([]float64, len(rec.SKT))
	}
	return &out
}

// clampNonFinite zeroes NaN/Inf cells of a normalised feature map in
// place. Zero is the training mean after z-scoring, so a clamped feature
// is a neutral vote rather than a poison pill for the forward pass.
func clampNonFinite(x *tensor.Tensor) {
	for i, v := range x.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			x.Data[i] = 0
			mMonClamped.Inc()
		}
	}
}

// The concrete features.Normalizer satisfies Normalizer.
var _ Normalizer = (*features.Normalizer)(nil)
