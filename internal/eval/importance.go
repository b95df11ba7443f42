package eval

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/features"
	"repro/internal/nn"
)

// Importance is the permutation importance of one feature (or feature
// group): the accuracy lost when that feature's rows are shuffled across
// samples, breaking their relationship with the label while preserving
// their marginal distribution.
type Importance struct {
	Name string
	// Rows are the feature-map row indices the entry covers.
	Rows []int
	// BaseAcc and PermAcc are accuracies before and after permutation.
	BaseAcc float64
	PermAcc float64
	// Drop = BaseAcc − PermAcc (higher = more important).
	Drop float64
}

// PermutationImportance measures how much each named row group contributes
// to the model's accuracy on data. Groups map display names to feature-map
// row indices; repeats averages over that many independent permutations.
// Groups draw from the seeded RNG in name order.
func PermutationImportance(m *nn.Model, data []nn.Sample, groups map[string][]int, repeats int, seed int64) ([]Importance, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("eval: no data for importance")
	}
	if repeats < 1 {
		repeats = 1
	}
	base := nn.Accuracy(m, data)
	rng := rand.New(rand.NewSource(seed))

	names := make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Importance
	for _, name := range names {
		rows := groups[name]
		dropSum := 0.0
		for r := 0; r < repeats; r++ {
			perm := rng.Perm(len(data))
			shuffled := make([]nn.Sample, len(data))
			for i, s := range data {
				x := s.X.Clone()
				src := data[perm[i]].X
				w := x.Dim(1)
				for _, row := range rows {
					for j := 0; j < w; j++ {
						x.Set(src.At(row, j), row, j)
					}
				}
				shuffled[i] = nn.Sample{X: x, Y: s.Y}
			}
			dropSum += base - nn.Accuracy(m, shuffled)
		}
		drop := dropSum / float64(repeats)
		out = append(out, Importance{
			Name: name, Rows: rows,
			BaseAcc: base, PermAcc: base - drop, Drop: drop,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Drop > out[j].Drop })
	return out, nil
}

// ModalityGroups returns the three sensor-modality row groups of the
// 123-feature map: BVP (rows 0–83), GSR (84–117) and SKT (118–122).
func ModalityGroups() map[string][]int {
	groups := map[string][]int{}
	add := func(name string, lo, n int) {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = lo + i
		}
		groups[name] = rows
	}
	add("BVP", 0, features.BVPFeatureCount)
	add("GSR", features.BVPFeatureCount, features.GSRFeatureCount)
	add("SKT", features.BVPFeatureCount+features.GSRFeatureCount, features.SKTFeatureCount)
	return groups
}

// TopFeatureGroups returns per-feature singleton groups for the named
// features (for fine-grained importance).
func TopFeatureGroups(names ...string) (map[string][]int, error) {
	all := features.FeatureNames()
	idx := map[string]int{}
	for i, n := range all {
		idx[n] = i
	}
	groups := map[string][]int{}
	for _, n := range names {
		i, ok := idx[n]
		if !ok {
			return nil, fmt.Errorf("eval: unknown feature %q", n)
		}
		groups[n] = []int{i}
	}
	return groups, nil
}
