package serve

import (
	"math"
	"testing"
)

// testWindowBank is a windowBank over a small template library.
func testWindowBank(t *testing.T, window int) *windowBank {
	t.Helper()
	cfg := DefaultConfig(1)
	cfg.WindowSize = window
	cfg.TemplatesPerApp = 4
	tmpl, err := buildTemplates(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := &windowBank{}
	b.init(cfg, tmpl)
	return b
}

// recs returns completions i ∈ [from, to), each tagged by its CPU time.
func recs(from, to int) []winRec {
	var out []winRec
	for i := from; i < to; i++ {
		out = append(out, winRec{app: int32(i % 3), tmpl: int32(i % 4), drift: 1 + float64(i)/100, anom: i%7 == 0, cpuNs: float64(i)})
	}
	return out
}

// TestWindowBankRing: the ring keeps the newest WindowSize completions
// across wraparound, at(i) reads them oldest first, and materialize
// rebuilds each one's pattern in that order.
func TestWindowBankRing(t *testing.T) {
	b := testWindowBank(t, 5)
	b.push(recs(0, 3))
	if b.winLen != 3 {
		t.Fatalf("winLen = %d after 3 pushes, want 3", b.winLen)
	}
	for i := 0; i < 3; i++ {
		if got := b.at(i).cpuNs; got != float64(i) {
			t.Fatalf("at(%d) = record %v, want %d", i, got, i)
		}
	}
	b.push(recs(3, 5))
	b.push(recs(5, 8)) // wraps: records 0..2 fall out
	if b.winLen != 5 {
		t.Fatalf("winLen = %d after wraparound, want 5", b.winLen)
	}
	for i := 0; i < 5; i++ {
		if got := b.at(i).cpuNs; got != float64(3+i) {
			t.Fatalf("at(%d) = record %v, want %d", i, got, 3+i)
		}
	}
	b.materialize()
	if b.set.n != 5 {
		t.Fatalf("materialized %d patterns, want 5", b.set.n)
	}
	for i := 0; i < 5; i++ {
		rec := b.at(i)
		tmpl := b.tmpl[rec.app][rec.tmpl].pattern
		pat := b.set.pats[i]
		if len(pat) != len(tmpl) || b.set.cpu[i] != rec.cpuNs || b.set.app[i] != rec.app {
			t.Fatalf("pattern %d: len %d cpu %v app %d, want len %d cpu %v app %d",
				i, len(pat), b.set.cpu[i], b.set.app[i], len(tmpl), rec.cpuNs, rec.app)
		}
		for j := range pat {
			if want := patternValue(tmpl, j, rec.drift, rec.anom); pat[j] != want {
				t.Fatalf("pattern %d bucket %d = %v, want %v", i, j, pat[j], want)
			}
		}
	}
}

// TestWindowBankCompactBelowMinFill: an empty window leaves the seeded
// bank and the +Inf threshold alone; a window below minWindowFill only
// recalibrates; the first full-enough window rebuilds the bank to BankK
// medoids.
func TestWindowBankCompactBelowMinFill(t *testing.T) {
	b := testWindowBank(t, 64)
	seeded := len(b.bank.Entries)
	seedThreshold := b.bank.ThresholdNs
	if b.compact(1) || b.recalibrations != 0 || !math.IsInf(b.threshold, 1) {
		t.Fatalf("empty window: rebuilt or recalibrated (recalibrations %d, threshold %v)",
			b.recalibrations, b.threshold)
	}

	b.push(recs(0, minWindowFill-1))
	if b.compact(1) {
		t.Fatal("window below minWindowFill rebuilt the bank")
	}
	if b.compactions != 0 || b.recalibrations != 1 || math.IsInf(b.threshold, 1) {
		t.Fatalf("below min fill: compactions %d recalibrations %d threshold %v, want 0, 1, finite",
			b.compactions, b.recalibrations, b.threshold)
	}
	if len(b.bank.Entries) != seeded || b.bank.ThresholdNs != seedThreshold {
		t.Fatalf("below min fill changed the seeded bank: %d entries, threshold %v",
			len(b.bank.Entries), b.bank.ThresholdNs)
	}

	b.push(recs(minWindowFill-1, minWindowFill))
	if !b.compact(1) {
		t.Fatal("window at minWindowFill did not rebuild the bank")
	}
	if b.compactions != 1 || b.recalibrations != 2 {
		t.Fatalf("compactions %d recalibrations %d, want 1 and 2", b.compactions, b.recalibrations)
	}
	if len(b.bank.Entries) != DefaultConfig(1).BankK {
		t.Fatalf("rebuilt bank has %d entries, want BankK", len(b.bank.Entries))
	}
	// Window CPU times are 0..31, so their median is 15.5.
	if b.bank.ThresholdNs != 15.5 {
		t.Fatalf("bank threshold %v, want the window median 15.5", b.bank.ThresholdNs)
	}
}
