package ml

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// twoClassData builds a separable dataset: feature 0 decides the class,
// feature 1 is noise.
func twoClassData(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	for i := 0; i < n; i++ {
		y := i % 2
		x0 := float64(y) + rng.Float64()*0.4 - 0.2
		x1 := rng.Float64()
		d.X = append(d.X, []float64{x0, x1})
		d.Y = append(d.Y, y)
	}
	return d
}

func TestTreeLearnsSeparableData(t *testing.T) {
	d := twoClassData(100, 1)
	tree := FitTree(d, nil, TreeConfig{})
	correct := 0
	for i := range d.X {
		if tree.Predict(d.X[i]) == d.Y[i] {
			correct++
		}
	}
	if correct < 98 {
		t.Errorf("training accuracy = %d/100", correct)
	}
}

func TestTreeImportanceFavorsSignalFeature(t *testing.T) {
	d := twoClassData(200, 2)
	tree := FitTree(d, nil, TreeConfig{})
	imp := tree.Importance()
	if imp[0] < imp[1] || imp[0] < 0.8 {
		t.Errorf("importance = %v, want feature 0 dominant", imp)
	}
	sum := imp[0] + imp[1]
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importance sum = %f, want 1", sum)
	}
}

func TestTreePureLeaf(t *testing.T) {
	d := &Dataset{X: [][]float64{{1}, {2}, {3}}, Y: []int{7, 7, 7}}
	tree := FitTree(d, nil, TreeConfig{})
	if got := tree.Predict([]float64{99}); got != 7 {
		t.Errorf("pure-leaf prediction = %d", got)
	}
}

func TestTreeHandlesNaN(t *testing.T) {
	nan := math.NaN()
	d := &Dataset{
		X: [][]float64{{0}, {0.1}, {nan}, {1}, {1.1}, {nan}},
		Y: []int{0, 0, 0, 1, 1, 1},
	}
	tree := FitTree(d, nil, TreeConfig{})
	if got := tree.Predict([]float64{0.05}); got != 0 {
		t.Errorf("Predict(0.05) = %d", got)
	}
	// NaN routes right without panicking.
	tree.Predict([]float64{nan})
}

func TestForestAccuracyAndImportance(t *testing.T) {
	d := twoClassData(120, 3)
	f := FitForest(d, ForestConfig{NumTrees: 30, Seed: 7})
	if acc := f.Accuracy(d, nil); acc < 0.95 {
		t.Errorf("forest training accuracy = %.2f", acc)
	}
	imp := f.Importance()
	if imp[0] < imp[1] {
		t.Errorf("forest importance = %v, want feature 0 dominant", imp)
	}
}

func TestForestDeterministicWithSeed(t *testing.T) {
	d := twoClassData(60, 4)
	f1 := FitForest(d, ForestConfig{NumTrees: 10, Seed: 42})
	f2 := FitForest(d, ForestConfig{NumTrees: 10, Seed: 42})
	for i := range d.X {
		if f1.Predict(d.X[i]) != f2.Predict(d.X[i]) {
			t.Fatal("same seed produced different forests")
		}
	}
}

func TestCrossValidate(t *testing.T) {
	d := twoClassData(100, 5)
	accs, imp := CrossValidate(d, ForestConfig{NumTrees: 15, Seed: 1}, 5, 3)
	if len(accs) != 15 {
		t.Fatalf("fold accuracies = %d, want 15 (3×5-fold, §7.2)", len(accs))
	}
	mean := 0.0
	for _, a := range accs {
		mean += a
	}
	mean /= float64(len(accs))
	if mean < 0.9 {
		t.Errorf("CV accuracy = %.2f", mean)
	}
	if imp[0] < imp[1] {
		t.Errorf("CV importance = %v", imp)
	}
}

func TestDBSCANTwoBlobs(t *testing.T) {
	var pts [][]float64
	for i := 0; i < 10; i++ {
		pts = append(pts, []float64{float64(i) * 0.01, 0})
		pts = append(pts, []float64{5 + float64(i)*0.01, 0})
	}
	pts = append(pts, []float64{100, 100}) // outlier
	res := DBSCAN(pts, 0.5, 3)
	if res.NumClusters != 2 {
		t.Fatalf("clusters = %d, want 2", res.NumClusters)
	}
	if res.Labels[len(pts)-1] != Noise {
		t.Error("outlier not labeled noise")
	}
	sizes := res.ClusterSizes()
	if sizes[0] != 10 || sizes[1] != 10 {
		t.Errorf("cluster sizes = %v", sizes)
	}
	if got := len(res.Members(0)); got != 10 {
		t.Errorf("Members(0) = %d", got)
	}
}

func TestDBSCANAllNoise(t *testing.T) {
	pts := [][]float64{{0, 0}, {10, 10}, {20, 20}}
	res := DBSCAN(pts, 1, 2)
	if res.NumClusters != 0 {
		t.Errorf("clusters = %d, want 0", res.NumClusters)
	}
}

func TestKDistanceEpsilon(t *testing.T) {
	pts := [][]float64{{0}, {1}, {2}, {3}}
	// 1-NN distances are all 1.
	if eps := KDistanceEpsilon(pts, 1); math.Abs(eps-1) > 1e-9 {
		t.Errorf("eps = %f, want 1", eps)
	}
	if eps := KDistanceEpsilon(pts[:1], 1); eps != 0 {
		t.Errorf("degenerate eps = %f", eps)
	}
}

func TestEuclideanSkipsNaN(t *testing.T) {
	nan := math.NaN()
	d := euclidean([]float64{1, nan, 3}, []float64{1, 5, 3})
	if d != 0 {
		t.Errorf("distance with NaN dim = %f, want 0", d)
	}
}

func TestSpearmanPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	y := []float64{10, 20, 30, 40, 50, 60, 70, 80}
	rs, p := Spearman(x, y)
	if math.Abs(rs-1) > 1e-9 {
		t.Errorf("rs = %f, want 1", rs)
	}
	if p > 1e-6 {
		t.Errorf("p = %g, want ~0", p)
	}
}

func TestSpearmanInverse(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{5, 4, 3, 2, 1}
	rs, _ := Spearman(x, y)
	if math.Abs(rs+1) > 1e-9 {
		t.Errorf("rs = %f, want -1", rs)
	}
}

func TestSpearmanUncorrelated(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 200
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
		y[i] = rng.Float64()
	}
	rs, p := Spearman(x, y)
	if math.Abs(rs) > 0.2 {
		t.Errorf("rs = %f, want ≈0", rs)
	}
	if p < 0.01 {
		t.Errorf("p = %g, want non-significant", p)
	}
}

func TestSpearmanTies(t *testing.T) {
	x := []float64{1, 1, 2, 2, 3, 3}
	y := []float64{1, 1, 2, 2, 3, 3}
	rs, _ := Spearman(x, y)
	if math.Abs(rs-1) > 1e-9 {
		t.Errorf("rs with ties = %f, want 1", rs)
	}
}

func TestSpearmanDegenerate(t *testing.T) {
	if rs, p := Spearman([]float64{1, 2}, []float64{1, 2}); rs != 0 || p != 1 {
		t.Errorf("n<3: rs=%f p=%f, want 0,1", rs, p)
	}
}

func TestStudentTTailSanity(t *testing.T) {
	// P(T > 0) = 0.5 for any df.
	if got := studentTTail(0, 10); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("tail(0) = %f", got)
	}
	// Known value: t=2.228, df=10 → one-sided tail ≈ 0.025.
	if got := studentTTail(2.228, 10); math.Abs(got-0.025) > 0.002 {
		t.Errorf("tail(2.228, 10) = %f, want ≈0.025", got)
	}
	// Monotone decreasing in t.
	if studentTTail(1, 5) <= studentTTail(2, 5) {
		t.Error("tail not decreasing")
	}
}

func TestImputeMedian(t *testing.T) {
	nan := math.NaN()
	x := [][]float64{
		{1, nan},
		{3, 10},
		{nan, 20},
		{5, nan},
	}
	ImputeMedian(x)
	if x[2][0] != 3 { // median of 1,3,5
		t.Errorf("imputed [2][0] = %f, want 3", x[2][0])
	}
	if x[0][1] != 15 { // median of 10,20
		t.Errorf("imputed [0][1] = %f, want 15", x[0][1])
	}
	for r := range x {
		for c := range x[r] {
			if math.IsNaN(x[r][c]) {
				t.Fatalf("NaN left at [%d][%d]", r, c)
			}
		}
	}
}

func TestImputeAllMissingColumn(t *testing.T) {
	nan := math.NaN()
	x := [][]float64{{nan}, {nan}}
	ImputeMedian(x)
	if x[0][0] != 0 || x[1][0] != 0 {
		t.Errorf("all-missing column imputed to %v, want zeros", x)
	}
}

func TestTopKIndices(t *testing.T) {
	vals := []float64{0.1, 0.9, 0.5, 0.7}
	top := TopKIndices(vals, 2)
	if len(top) != 2 || top[0] != 1 || top[1] != 3 {
		t.Errorf("TopKIndices = %v", top)
	}
	if got := TopKIndices(vals, 10); len(got) != 4 {
		t.Errorf("k>n: %v", got)
	}
}

func TestQuickRanksArePermutationInvariantSum(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		clean := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		r := ranks(clean)
		sum := 0.0
		for _, v := range r {
			sum += v
		}
		n := float64(len(clean))
		return math.Abs(sum-n*(n+1)/2) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickSpearmanBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(n uint8) bool {
		m := int(n%50) + 3
		x := make([]float64, m)
		y := make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		rs, p := Spearman(x, y)
		return rs >= -1 && rs <= 1 && p >= 0 && p <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConfusionMatrixBasics(t *testing.T) {
	cm := NewConfusionMatrix([]string{"a", "b"})
	cm.Add(0, 0)
	cm.Add(0, 0)
	cm.Add(0, 1)
	cm.Add(1, 1)
	if got := cm.Accuracy(); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("accuracy = %f", got)
	}
	if got := cm.Precision(1); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("precision(b) = %f", got)
	}
	if got := cm.Recall(0); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("recall(a) = %f", got)
	}
	if got := cm.Recall(1); got != 1 {
		t.Errorf("recall(b) = %f", got)
	}
	if f1 := cm.F1(0); f1 <= 0 || f1 > 1 {
		t.Errorf("F1(a) = %f", f1)
	}
	if mf := cm.MacroF1(); mf <= 0 || mf > 1 {
		t.Errorf("macro-F1 = %f", mf)
	}
	out := cm.String()
	if !strings.Contains(out, "accuracy 0.75") {
		t.Errorf("render: %s", out)
	}
}

func TestConfusionMatrixEdgeCases(t *testing.T) {
	cm := NewConfusionMatrix([]string{"x", "never"})
	cm.Add(0, 0)
	if cm.Precision(1) != 1 || cm.Recall(1) != 1 {
		t.Error("absent class should default precision/recall to 1")
	}
	cm.Add(-1, 5) // out of range ignored
	if cm.Accuracy() != 1 {
		t.Error("out-of-range Add should be ignored")
	}
	empty := NewConfusionMatrix(nil)
	if empty.Accuracy() != 0 || empty.MacroF1() != 0 {
		t.Error("empty matrix metrics should be 0")
	}
}

func TestCrossValidateConfusion(t *testing.T) {
	d := twoClassData(100, 8)
	cm := CrossValidateConfusion(d, []string{"zero", "one"}, ForestConfig{NumTrees: 15, Seed: 1}, 5, 2)
	if cm.Accuracy() < 0.9 {
		t.Errorf("CV confusion accuracy = %.2f", cm.Accuracy())
	}
	total := 0
	for _, row := range cm.Counts {
		for _, n := range row {
			total += n
		}
	}
	if total != 200 { // 100 samples × 2 repeats
		t.Errorf("total predictions = %d, want 200", total)
	}
}

func TestFitForestOOB(t *testing.T) {
	d := twoClassData(150, 12)
	f, oob := FitForestOOB(d, ForestConfig{NumTrees: 40, Seed: 5})
	if len(f.Trees) != 40 {
		t.Fatalf("trees = %d", len(f.Trees))
	}
	if oob < 0.85 || oob > 1 {
		t.Errorf("OOB accuracy = %.2f, want high on separable data", oob)
	}
	// OOB should roughly agree with CV accuracy.
	accs, _ := CrossValidate(d, ForestConfig{NumTrees: 40, Seed: 5}, 5, 1)
	mean := 0.0
	for _, a := range accs {
		mean += a
	}
	mean /= float64(len(accs))
	if math.Abs(oob-mean) > 0.15 {
		t.Errorf("OOB %.2f far from CV %.2f", oob, mean)
	}
}

// TestForestImportanceDeterministic: fitting the same forest on the same
// data must give bit-identical MDI every time. The data invites exact
// ties — many classes, coarse feature values, and a duplicated column,
// so two features offer splits of equal gain — where any run-to-run
// wobble in the impurity sums would flip which feature wins.
func TestForestImportanceDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := &Dataset{}
	for i := 0; i < 240; i++ {
		y := i % 7
		a := float64(y/2) + float64(rng.Intn(3))
		b := float64(rng.Intn(5))
		d.X = append(d.X, []float64{a, a, b, float64((y + rng.Intn(2)) % 4)})
		d.Y = append(d.Y, y)
	}
	cfg := ForestConfig{NumTrees: 20, MaxFeatures: 4, Seed: 3}
	want := FitForest(d, cfg).Importance()
	for run := 1; run < 20; run++ {
		got := FitForest(d, cfg).Importance()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("fit %d: importance %v, first fit %v", run, got, want)
			}
		}
	}
}
