package kleio

import "testing"

func TestTrainSchedulerValidation(t *testing.T) {
	if _, _, err := TrainScheduler(1, 10, 2+HistoryLen/2, 4, 1); err == nil {
		t.Fatal("too few intervals accepted")
	}
}

// The Kleio claim end to end: the trained LSTM scheduler must beat the
// history-based baseline on fast-tier hit ratio, because it anticipates the
// periodic pages' phase flips instead of reacting one interval late.
func TestLearnedSchedulerBeatsHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("BPTT training is seconds of work")
	}
	const pages, capacity, intervals = 30, 20, 64
	sched, acc, err := TrainScheduler(5, pages, 28, 12, 14)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("scheduler training accuracy = %.3f, want >= 0.9", acc)
	}

	histPat := NewAccessPattern(77, pages)
	histRes, err := TierSim(histPat, HistoryBased(15), pages, capacity, intervals)
	if err != nil {
		t.Fatal(err)
	}
	lstmPat := NewAccessPattern(77, pages)
	lstmRes, err := TierSim(lstmPat, sched, pages, capacity, intervals)
	if err != nil {
		t.Fatal(err)
	}
	oraclePat := NewAccessPattern(77, pages)
	oracleRes, err := TierSim(oraclePat, NewOracle(oraclePat), pages, capacity, intervals)
	if err != nil {
		t.Fatal(err)
	}

	if lstmRes.FastHitRatio <= histRes.FastHitRatio {
		t.Fatalf("LSTM hit ratio %.3f not > history %.3f (oracle %.3f)",
			lstmRes.FastHitRatio, histRes.FastHitRatio, oracleRes.FastHitRatio)
	}
	if lstmRes.FastHitRatio > oracleRes.FastHitRatio+0.01 {
		t.Fatalf("LSTM hit ratio %.3f exceeds the oracle %.3f: leakage",
			lstmRes.FastHitRatio, oracleRes.FastHitRatio)
	}
}
