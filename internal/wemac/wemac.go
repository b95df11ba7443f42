package wemac

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/features"
	"repro/internal/tensor"
)

// Label is the binary emotion class of a trial.
type Label int

// The fear-detection task is binary, as in the paper's Table I.
const (
	NonFear Label = 0
	Fear    Label = 1
)

func (l Label) String() string {
	if l == Fear {
		return "fear"
	}
	return "non-fear"
}

// Trial is one stimulus presentation: a label and the recorded signals.
type Trial struct {
	Label Label
	// Efficacy records how strongly the stimulus induced the target emotion
	// (generator ground truth; not visible to models).
	Efficacy float64
	Rec      *features.Recording
}

// Volunteer is one synthetic participant.
type Volunteer struct {
	ID        int
	Archetype int // ground-truth latent group (not visible to models)
	Params    UserParams
	Trials    []Trial
	// DriftTo / DriftStart record the drift-persona ground truth: from
	// trial DriftStart onward the volunteer's generator parameters
	// interpolate from Archetype toward DriftTo (−1 / 0 for stable
	// volunteers). Not visible to models.
	DriftTo    int
	DriftStart int
}

// Config controls dataset generation.
type Config struct {
	// ArchetypeSizes gives the number of volunteers per archetype.
	// Defaults to the paper's 17/13/7/7.
	ArchetypeSizes []int
	// TrialsPerVolunteer is the number of stimulus presentations each
	// volunteer watches (default 18, yielding ≈800 feature maps for the
	// default population).
	TrialsPerVolunteer int
	// TrialSec is the recording length per stimulus (default 60 s).
	TrialSec float64
	// Drift optionally turns individual volunteers into drift personas:
	// from StartFrac of their trial sequence onward, the volunteer's
	// generator parameters interpolate from their own archetype toward
	// another (see DriftSpec). Volunteers without a spec are generated
	// bitwise-identically to a drift-free run — each volunteer's signals
	// derive from an independent sub-seeded RNG, so adding a spec for one
	// user cannot perturb any other.
	Drift []DriftSpec
	// Seed makes generation deterministic.
	Seed int64
}

// DriftSpec turns one volunteer into a drift persona: a synthetic user
// whose physiology migrates from their assigned archetype to another
// mid-stream — the statistical fault the paper's robustness tests (RT)
// measure as "served by a wrong-cluster model". Used by the serving
// layer's drift-detector tests and clear-loadgen's chaos mode.
type DriftSpec struct {
	// User is the volunteer ID (generation-order index) to drift.
	User int
	// To is the target archetype the volunteer migrates toward.
	To int
	// StartFrac is the fraction of the trial sequence at which the
	// interpolation begins (trials before it are pure source archetype —
	// keep it past the cold-start budget so the initial assignment is
	// clean). Clamped to [0,1].
	StartFrac float64
	// EndFrac is where the interpolation reaches the full target
	// archetype; 0 defaults to 1 (drift completes at the end of the
	// stream).
	EndFrac float64
}

// driftFor returns the drift spec covering volunteer id, nil for stable
// volunteers.
func (c *Config) driftFor(id int) *DriftSpec {
	for i := range c.Drift {
		if c.Drift[i].User == id {
			return &c.Drift[i]
		}
	}
	return nil
}

// DefaultConfig mirrors the paper's experimental setup.
func DefaultConfig() Config {
	return Config{
		ArchetypeSizes:     DefaultArchetypeSizes(),
		TrialsPerVolunteer: 18,
		TrialSec:           60,
		Seed:               1,
	}
}

// ScaledConfig is DefaultConfig with the given seed and every archetype's
// volunteer count scaled by scale, rounded to nearest and kept at 2 or
// more so each archetype can still hold a LOSO fold out.
func ScaledConfig(seed int64, scale float64) Config {
	c := DefaultConfig()
	c.Seed = seed
	for i, s := range c.ArchetypeSizes {
		n := int(float64(s)*scale + 0.5)
		if n < 2 {
			n = 2
		}
		c.ArchetypeSizes[i] = n
	}
	return c
}

func (c *Config) fillDefaults() {
	if len(c.ArchetypeSizes) == 0 {
		c.ArchetypeSizes = DefaultArchetypeSizes()
	}
	if c.TrialsPerVolunteer == 0 {
		c.TrialsPerVolunteer = 18
	}
	if c.TrialSec == 0 {
		c.TrialSec = 60
	}
}

// Dataset is a generated synthetic population.
type Dataset struct {
	Config     Config
	Volunteers []*Volunteer
}

// N returns the number of volunteers.
func (d *Dataset) N() int { return len(d.Volunteers) }

// Generate builds a deterministic synthetic dataset. Volunteers are
// interleaved across archetypes (so ID order carries no group information)
// and each volunteer's signals derive from an independent sub-seeded RNG,
// making per-volunteer content stable under population changes.
func Generate(cfg Config) *Dataset {
	cfg.fillDefaults()
	archs := Archetypes()
	if len(cfg.ArchetypeSizes) > len(archs) {
		panic(fmt.Sprintf("wemac: %d archetype sizes but only %d archetypes defined",
			len(cfg.ArchetypeSizes), len(archs)))
	}
	// Build the interleaved archetype assignment sequence.
	remaining := append([]int(nil), cfg.ArchetypeSizes...)
	var order []int
	for {
		progress := false
		for a, r := range remaining {
			if r > 0 {
				order = append(order, a)
				remaining[a]--
				progress = true
			}
		}
		if !progress {
			break
		}
	}

	ds := &Dataset{Config: cfg}
	type job struct {
		id, arch int
	}
	jobs := make([]job, len(order))
	for i, a := range order {
		jobs[i] = job{id: i, arch: a}
	}
	vols := make([]*Volunteer, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			vols[j.id] = generateVolunteer(cfg, j.id, j.arch)
		}(j)
	}
	wg.Wait()
	ds.Volunteers = vols
	return ds
}

func generateVolunteer(cfg Config, id, arch int) *Volunteer {
	// Stable per-volunteer stream: mix the dataset seed with the ID.
	rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(id)*7919))
	a := Archetypes()[arch]
	spec := cfg.driftFor(id)
	v := &Volunteer{ID: id, Archetype: arch, DriftTo: -1, Params: sampleUserParams(rng)}
	if spec != nil {
		v.DriftTo = spec.To
		v.DriftStart = cfg.TrialsPerVolunteer
	}
	for t := 0; t < cfg.TrialsPerVolunteer; t++ {
		fear := t%2 == 1 // balanced classes, alternating
		eff := 1.0
		if fear {
			eff = inductionEfficacy(rng)
		}
		// Drift personas glide toward the target archetype. The blend is a
		// pure value substitution — it consumes no RNG draws, so trials
		// before the drift onset (w == 0) stay bitwise identical to the
		// stable persona's.
		ta := a
		if spec != nil {
			if w := spec.weightAt(t, cfg.TrialsPerVolunteer); w > 0 {
				ta = lerpArchetype(a, Archetypes()[spec.To], w)
				if t < v.DriftStart {
					v.DriftStart = t
				}
			}
		}
		dyn := resolveDynamics(rng, ta, v.Params, sampleTrialJitter(rng), fear, eff)
		label := NonFear
		if fear {
			label = Fear
		}
		v.Trials = append(v.Trials, Trial{
			Label:    label,
			Efficacy: eff,
			Rec:      synthRecording(rng, &dyn, cfg.TrialSec),
		})
	}
	return v
}

// LabeledMap pairs a feature map with its trial label.
type LabeledMap struct {
	Map   *tensor.Tensor // F×W feature map
	Label Label
}

// UserMaps holds the extracted feature maps for one volunteer.
type UserMaps struct {
	ID        int
	Archetype int
	Maps      []LabeledMap
}

// BudgetWindows returns how many of total maps a frac budget covers — the
// rounding Summary applies: nearest integer, at least one, at most total.
// Serving code uses it to trigger cold-start assignment after exactly the
// number of windows the batch eval path would consume.
func BudgetWindows(total int, frac float64) int {
	n := int(frac*float64(total) + 0.5)
	if n < 1 {
		n = 1
	}
	if n > total {
		n = total
	}
	return n
}

// Summary returns the volunteer's unlabeled per-feature mean vector over the
// first frac of their maps (frac in (0,1]; the paper's cold-start assignment
// uses 10 %, i.e. frac = 0.1, with at least one map).
func (u *UserMaps) Summary(frac float64) []float64 {
	n := BudgetWindows(len(u.Maps), frac)
	ms := make([]*tensor.Tensor, n)
	for i := 0; i < n; i++ {
		ms[i] = u.Maps[i].Map
	}
	return features.Summary(ms)
}

// AllMaps returns just the tensors of u's maps.
func (u *UserMaps) AllMaps() []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(u.Maps))
	for i, lm := range u.Maps {
		out[i] = lm.Map
	}
	return out
}

// ExtractAll converts every trial of every volunteer into a feature map,
// in parallel. The result preserves volunteer order; within a volunteer,
// maps follow trial order.
func ExtractAll(ds *Dataset, ecfg features.ExtractorConfig) ([]*UserMaps, error) {
	out := make([]*UserMaps, ds.N())
	errs := make([]error, ds.N())
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for i, v := range ds.Volunteers {
		wg.Add(1)
		go func(i int, v *Volunteer) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			um := &UserMaps{ID: v.ID, Archetype: v.Archetype}
			for _, tr := range v.Trials {
				m, err := features.ExtractMap(tr.Rec, ecfg)
				if err != nil {
					errs[i] = fmt.Errorf("volunteer %d: %w", v.ID, err)
					return
				}
				um.Maps = append(um.Maps, LabeledMap{Map: m, Label: tr.Label})
			}
			out[i] = um
		}(i, v)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TotalMaps counts feature maps across all users.
func TotalMaps(users []*UserMaps) int {
	n := 0
	for _, u := range users {
		n += len(u.Maps)
	}
	return n
}
