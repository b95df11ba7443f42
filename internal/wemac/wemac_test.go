package wemac

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/features"
)

// smallConfig keeps generation cheap for unit tests.
func smallConfig() Config {
	return Config{
		ArchetypeSizes:     []int{3, 3, 2, 2},
		TrialsPerVolunteer: 4,
		TrialSec:           20,
		Seed:               7,
	}
}

func TestGenerateShape(t *testing.T) {
	ds := Generate(smallConfig())
	if ds.N() != 10 {
		t.Fatalf("N = %d, want 10", ds.N())
	}
	counts := map[int]int{}
	for _, v := range ds.Volunteers {
		counts[v.Archetype]++
		if len(v.Trials) != 4 {
			t.Errorf("volunteer %d has %d trials", v.ID, len(v.Trials))
		}
		for _, tr := range v.Trials {
			if got := tr.Rec.Duration(); math.Abs(got-20) > 0.5 {
				t.Errorf("trial duration %g, want 20", got)
			}
		}
	}
	want := map[int]int{0: 3, 1: 3, 2: 2, 3: 2}
	for a, n := range want {
		if counts[a] != n {
			t.Errorf("archetype %d count = %d, want %d", a, counts[a], n)
		}
	}
}

func TestGenerateInterleavesArchetypes(t *testing.T) {
	ds := Generate(smallConfig())
	// The first four volunteers must span all four archetypes.
	seen := map[int]bool{}
	for _, v := range ds.Volunteers[:4] {
		seen[v.Archetype] = true
	}
	if len(seen) != 4 {
		t.Errorf("first 4 volunteers span %d archetypes, want 4", len(seen))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallConfig())
	b := Generate(smallConfig())
	for i := range a.Volunteers {
		va, vb := a.Volunteers[i], b.Volunteers[i]
		if va.Params != vb.Params {
			t.Fatalf("volunteer %d params differ", i)
		}
		for j := range va.Trials {
			ra, rb := va.Trials[j].Rec, vb.Trials[j].Rec
			for k := range ra.BVP {
				if ra.BVP[k] != rb.BVP[k] {
					t.Fatalf("volunteer %d trial %d BVP differs at %d", i, j, k)
				}
			}
		}
	}
}

func TestScaledConfig(t *testing.T) {
	for _, tc := range []struct {
		scale float64
		want  []int
	}{
		{1.0, []int{17, 13, 7, 7}},
		{0.6, []int{10, 8, 4, 4}},
		{0.25, []int{4, 3, 2, 2}},
		{0.05, []int{2, 2, 2, 2}}, // every archetype clamps to 2
	} {
		c := ScaledConfig(3, tc.scale)
		if c.Seed != 3 || fmt.Sprint(c.ArchetypeSizes) != fmt.Sprint(tc.want) {
			t.Errorf("ScaledConfig(3, %v) = seed %d sizes %v, want seed 3 sizes %v",
				tc.scale, c.Seed, c.ArchetypeSizes, tc.want)
		}
	}
}

func TestGenerateSeedChangesData(t *testing.T) {
	cfg := smallConfig()
	a := Generate(cfg)
	cfg.Seed = 8
	b := Generate(cfg)
	if a.Volunteers[0].Trials[0].Rec.BVP[100] == b.Volunteers[0].Trials[0].Rec.BVP[100] {
		t.Error("different seeds should produce different signals")
	}
}

func TestLabelsBalanced(t *testing.T) {
	ds := Generate(smallConfig())
	for _, v := range ds.Volunteers {
		fear := 0
		for _, tr := range v.Trials {
			if tr.Label == Fear {
				fear++
			}
		}
		if fear != len(v.Trials)/2 {
			t.Errorf("volunteer %d: %d fear of %d", v.ID, fear, len(v.Trials))
		}
	}
}

func TestFearRaisesHeartRateForSympathetic(t *testing.T) {
	// Archetype 0 (sympathetic) responds to fear with a strong HR increase.
	cfg := Config{ArchetypeSizes: []int{6}, TrialsPerVolunteer: 6, TrialSec: 30, Seed: 3}
	ds := Generate(cfg)
	var fearHR, calmHR []float64
	for _, v := range ds.Volunteers {
		for _, tr := range v.Trials {
			hr := estimateHR(tr.Rec)
			if tr.Label == Fear {
				fearHR = append(fearHR, hr)
			} else {
				calmHR = append(calmHR, hr)
			}
		}
	}
	mf, mc := features.Mean(fearHR), features.Mean(calmHR)
	if mf-mc < 5 {
		t.Errorf("sympathetic fear HR %.1f vs calm %.1f: want ≥5 bpm gap", mf, mc)
	}
}

func TestFreezeArchetypeLowersHeartRate(t *testing.T) {
	cfg := Config{ArchetypeSizes: []int{0, 0, 6}, TrialsPerVolunteer: 6, TrialSec: 30, Seed: 4}
	ds := Generate(cfg)
	var fearHR, calmHR []float64
	for _, v := range ds.Volunteers {
		if v.Archetype != 2 {
			t.Fatalf("expected freeze archetype, got %d", v.Archetype)
		}
		for _, tr := range v.Trials {
			hr := estimateHR(tr.Rec)
			if tr.Label == Fear {
				fearHR = append(fearHR, hr)
			} else {
				calmHR = append(calmHR, hr)
			}
		}
	}
	mf, mc := features.Mean(fearHR), features.Mean(calmHR)
	if mc-mf < 2 {
		t.Errorf("freeze fear HR %.1f vs calm %.1f: fear should be lower", mf, mc)
	}
}

// estimateHR measures mean pulse rate over the second half of the trial
// (the response plateau — the fear response ramps up after stimulus onset,
// so whole-trial means dilute it).
func estimateHR(rec *features.Recording) float64 {
	half := rec.BVP[len(rec.BVP)/2:]
	vec := features.ExtractBVP(half, rec.BVPFs)
	// hr_mean is feature index 25 (after 17 raw + 5 d1 + 3 d2).
	return vec[25]
}

func TestArchetypeBaselinesSeparate(t *testing.T) {
	// Tonic GSR differs across archetypes even on non-fear trials: that is
	// what makes unsupervised clustering possible.
	cfg := Config{ArchetypeSizes: []int{4, 4, 4, 4}, TrialsPerVolunteer: 4, TrialSec: 20, Seed: 5}
	ds := Generate(cfg)
	tonic := map[int][]float64{}
	for _, v := range ds.Volunteers {
		for _, tr := range v.Trials {
			if tr.Label == NonFear {
				tonic[v.Archetype] = append(tonic[v.Archetype], features.Mean(tr.Rec.GSR))
			}
		}
	}
	mSym := features.Mean(tonic[0]) // archetype 0: tonic ≈ 8
	mBlu := features.Mean(tonic[3]) // archetype 3: tonic ≈ 2
	if mSym-mBlu < 3 {
		t.Errorf("GSR tonic separation: sympathetic %.2f vs blunted %.2f", mSym, mBlu)
	}
}

func TestInductionEfficacyRecorded(t *testing.T) {
	ds := Generate(smallConfig())
	weak, strong := 0, 0
	for _, v := range ds.Volunteers {
		for _, tr := range v.Trials {
			if tr.Label != Fear {
				continue
			}
			if tr.Efficacy < 0.4 {
				weak++
			} else {
				strong++
			}
		}
	}
	if strong == 0 {
		t.Error("no strong inductions generated")
	}
	// Weak inductions exist in expectation (~15 %); with 20 fear trials the
	// chance of zero is (0.85)^20 ≈ 3.9 %, accepted for a fixed seed.
	if weak == 0 {
		t.Log("note: no weak inductions at this seed (possible but rare)")
	}
}

func TestExtractAll(t *testing.T) {
	ds := Generate(smallConfig())
	ecfg := features.ExtractorConfig{WindowSec: 8, Windows: 3}
	users, err := ExtractAll(ds, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != ds.N() {
		t.Fatalf("users %d", len(users))
	}
	if TotalMaps(users) != ds.N()*4 {
		t.Errorf("TotalMaps = %d, want %d", TotalMaps(users), ds.N()*4)
	}
	for _, u := range users {
		for _, lm := range u.Maps {
			if lm.Map.Dim(0) != features.TotalFeatureCount || lm.Map.Dim(1) != 3 {
				t.Fatalf("map shape %v", lm.Map.Shape)
			}
		}
	}
}

func TestExtractAllErrorPropagates(t *testing.T) {
	ds := Generate(smallConfig())
	// Window longer than the trial must surface an error.
	_, err := ExtractAll(ds, features.ExtractorConfig{WindowSec: 100, Windows: 2})
	if err == nil {
		t.Fatal("want extraction error")
	}
}

func TestUserMapsSummary(t *testing.T) {
	ds := Generate(smallConfig())
	users, err := ExtractAll(ds, features.ExtractorConfig{WindowSec: 8, Windows: 3})
	if err != nil {
		t.Fatal(err)
	}
	u := users[0]
	s := u.Summary(0.1) // rounds up to 1 map
	if len(s) != features.TotalFeatureCount {
		t.Fatalf("summary length %d", len(s))
	}
	full := u.Summary(1.0)
	if len(full) != features.TotalFeatureCount {
		t.Fatalf("full summary length %d", len(full))
	}
	// Fractions outside (0,1] clamp sanely.
	if got := u.Summary(5.0); len(got) != features.TotalFeatureCount {
		t.Error("over-fraction should clamp")
	}
	if got := u.Summary(-1); len(got) != features.TotalFeatureCount {
		t.Error("under-fraction should clamp to one map")
	}
}

func TestLabelString(t *testing.T) {
	if Fear.String() != "fear" || NonFear.String() != "non-fear" {
		t.Error("Label.String wrong")
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.TrialsPerVolunteer != 18 || cfg.TrialSec != 60 {
		t.Error("default config changed unexpectedly")
	}
	sum := 0
	for _, s := range cfg.ArchetypeSizes {
		sum += s
	}
	if sum != 44 {
		t.Errorf("default population %d, want 44 (17+13+7+7)", sum)
	}
}
