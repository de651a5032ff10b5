package ml

import (
	"math"
	"math/rand"
)

// Forest is a random forest classifier: bagged CART trees with random
// feature subspaces, exposing MDI feature importance the way §7.2 uses it
// ("We measure the importance of each feature using the mean-decrease in
// impurity (MDI) calculated by the random-forest classifier").
type Forest struct {
	Trees []*Tree
	seed  int64
	// classes is the training set's class count (see Dataset.numClasses).
	classes int
}

// ForestConfig parameterizes training.
type ForestConfig struct {
	NumTrees int // default 100
	MaxDepth int // default unbounded
	// MaxFeatures per split; default sqrt(num features).
	MaxFeatures int
	MinLeafSize int
	Seed        int64
}

func (c ForestConfig) withDefaults(numFeatures int) ForestConfig {
	if c.NumTrees == 0 {
		c.NumTrees = 100
	}
	if c.MaxFeatures == 0 {
		c.MaxFeatures = int(math.Ceil(math.Sqrt(float64(numFeatures))))
	}
	if c.MinLeafSize == 0 {
		c.MinLeafSize = 1
	}
	return c
}

// FitForest trains a forest on the dataset.
func FitForest(d *Dataset, cfg ForestConfig) *Forest {
	cfg = cfg.withDefaults(d.NumFeatures())
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Forest{seed: cfg.Seed, classes: d.numClasses()}
	n := len(d.X)
	for t := 0; t < cfg.NumTrees; t++ {
		// Bootstrap sample.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		tree := FitTree(d, idx, TreeConfig{
			MaxDepth:    cfg.MaxDepth,
			MinLeafSize: cfg.MinLeafSize,
			MaxFeatures: cfg.MaxFeatures,
			Rng:         rng,
		})
		f.Trees = append(f.Trees, tree)
	}
	return f
}

// Predict classifies one sample by majority vote.
func (f *Forest) Predict(x []float64) int {
	votes := make([]int, f.classes)
	for _, t := range f.Trees {
		votes[t.Predict(x)]++
	}
	return majority(votes)
}

// Importance returns the forest's MDI per feature: the mean of the trees'
// normalized importances.
func (f *Forest) Importance() []float64 {
	if len(f.Trees) == 0 {
		return nil
	}
	out := make([]float64, len(f.Trees[0].importance))
	for _, t := range f.Trees {
		for i, v := range t.Importance() {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(f.Trees))
	}
	return out
}

// Accuracy scores the forest on a labeled set.
func (f *Forest) Accuracy(d *Dataset, idx []int) float64 {
	if idx == nil {
		idx = make([]int, len(d.X))
		for i := range idx {
			idx[i] = i
		}
	}
	if len(idx) == 0 {
		return 0
	}
	correct := 0
	for _, i := range idx {
		if f.Predict(d.X[i]) == d.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(idx))
}

// CrossValidate runs k-fold cross-validation `repeats` times (the paper
// trains "three times using 5-fold cross-validation, for a total of 15
// repetitions") and returns the per-fold accuracies and the MDI averaged
// over every trained forest.
func CrossValidate(d *Dataset, cfg ForestConfig, k, repeats int) (accuracies []float64, importance []float64) {
	n := len(d.X)
	importance = make([]float64, d.NumFeatures())
	forests := 0
	for rep := 0; rep < repeats; rep++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(rep)))
		perm := rng.Perm(n)
		for fold := 0; fold < k; fold++ {
			var trainIdx, testIdx []int
			for i, p := range perm {
				if i%k == fold {
					testIdx = append(testIdx, p)
				} else {
					trainIdx = append(trainIdx, p)
				}
			}
			if len(trainIdx) == 0 || len(testIdx) == 0 {
				continue
			}
			sub := &Dataset{}
			for _, i := range trainIdx {
				sub.X = append(sub.X, d.X[i])
				sub.Y = append(sub.Y, d.Y[i])
			}
			foldCfg := cfg
			foldCfg.Seed = cfg.Seed + int64(rep*1000+fold)
			forest := FitForest(sub, foldCfg)
			accuracies = append(accuracies, forest.Accuracy(d, testIdx))
			for i, v := range forest.Importance() {
				importance[i] += v
			}
			forests++
		}
	}
	if forests > 0 {
		for i := range importance {
			importance[i] /= float64(forests)
		}
	}
	return accuracies, importance
}

// newPermRng returns a seeded generator for fold permutation (kept in one
// place so CrossValidate and CrossValidateConfusion shuffle identically).
func newPermRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// FitForestOOB trains a forest and additionally returns the out-of-bag
// accuracy estimate: each sample is scored only by the trees whose
// bootstrap missed it, approximating held-out accuracy without a split.
func FitForestOOB(d *Dataset, cfg ForestConfig) (*Forest, float64) {
	cfg = cfg.withDefaults(d.NumFeatures())
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Forest{seed: cfg.Seed, classes: d.numClasses()}
	n := len(d.X)
	// oobVotes[i] stays nil until a tree whose bootstrap missed sample i
	// votes on it.
	oobVotes := make([][]int, n)
	for t := 0; t < cfg.NumTrees; t++ {
		idx := make([]int, n)
		inBag := make([]bool, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
			inBag[idx[i]] = true
		}
		tree := FitTree(d, idx, TreeConfig{
			MaxDepth:    cfg.MaxDepth,
			MinLeafSize: cfg.MinLeafSize,
			MaxFeatures: cfg.MaxFeatures,
			Rng:         rng,
		})
		f.Trees = append(f.Trees, tree)
		for i := 0; i < n; i++ {
			if !inBag[i] {
				if oobVotes[i] == nil {
					oobVotes[i] = make([]int, f.classes)
				}
				oobVotes[i][tree.Predict(d.X[i])]++
			}
		}
	}
	correct, scored := 0, 0
	for i, votes := range oobVotes {
		if votes == nil {
			continue
		}
		scored++
		if majority(votes) == d.Y[i] {
			correct++
		}
	}
	oob := 0.0
	if scored > 0 {
		oob = float64(correct) / float64(scored)
	}
	return f, oob
}
