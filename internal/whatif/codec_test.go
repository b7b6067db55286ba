package whatif

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/breaker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/monitor"
)

// sampleSnapshot exercises every encoded field: multiple domains (with and
// without hourly-Et state), pending ops, NaN and signed-zero floats, empty
// and populated slices. Its encoding is pinned in
// testdata/sample_snapshot.bin.
func sampleSnapshot() *Snapshot {
	hourly := &core.HourlyEtState{Percentile: 95, Default: 0.05, MinSamples: 8, Window: 30}
	hourly.Bins[0] = core.EtBinState{Sorted: []float64{0.01, 0.02, math.NaN()}, Ring: []float64{0.02, 0.01}, Head: 1}
	hourly.Bins[23] = core.EtBinState{Sorted: []float64{math.Copysign(0, -1)}, Ring: []float64{0}, Head: 0}
	return &Snapshot{
		SimMS:      1_800_000,
		Seed:       0xDEADBEEF,
		ConfigTag:  "gridstorm/cliff seed=1 rows=4x80",
		JournalSeq: 120,
		Domains: []core.DomainSnapshot{
			{
				Name:    "row0",
				Frozen:  []cluster.ServerID{3, 17, 42},
				Pending: []core.PendingOpState{{Server: 9, Unfreeze: true, Attempt: 2}},
				BudgetW: 19000, BudgetPrevW: 24000, BudgetTargetW: 19000,
				OverrideW: 0, HaveOverride: false,
				PrevP: 18950.5, PrevTMS: 1_740_000, HavePrev: true,
				LastGoodP: 18950.5, LastGoodAtMS: 1_740_000, HaveGood: true,
				Dark: 0, DegradedSinceMS: -1, FailSafe: false, ConsecAPIErr: 0,
				LastP: 18950.5, LastEt: 0.03, LastTarget: 12,
				Stats: core.DomainStats{
					Ticks: 29, Violations: 2, ControlledTicks: 5,
					FreezeOps: 14, UnfreezeOps: 11, USum: 1.5, UMax: 0.2,
					PSum: 27.1, PMax: 1.05, StaleTicks: 1, DegradedDwell: 60000,
				},
				Hourly: hourly,
			},
			{Name: "row1", BudgetW: 24000, LastEt: math.Inf(1)},
		},
		Servers: []cluster.ServerState{
			{Busy: 3, CPULoad: 0.55, Frozen: true, Failed: false, Speed: 1.08, CapLevelW: 200, NoiseW: -3.25},
			{Busy: 0, CPULoad: 0, Frozen: false, Failed: true, Speed: 0.97, CapLevelW: 250, NoiseW: math.NaN()},
		},
		Monitor: monitor.State{
			LastServer: []float64{210.5, 0, 198.2},
			LastRow:    []float64{612.7},
			LastRack:   nil,
			LastTimeMS: 1_799_000, HaveSample: true,
			Sweeps: 360, Dropped: 2, WriteErrors: 1,
		},
		Breakers: []BreakerSnapshot{
			{Name: "row0", State: breaker.State{BudgetW: 19297, Heat: 2.5, Tripped: false, TripAtMS: -1, Evaluated: 360}},
			{Name: "row1", State: breaker.State{BudgetW: 24380, Heat: 0, Tripped: true, TripAtMS: 1_810_000, Evaluated: 361}},
		},
	}
}

// TestEncodePinned holds the canonical encoding to the bytes committed in
// testdata: the printed witness sizes and the envelope stay fixed, and NaN
// payloads and −0 keep their bits.
func TestEncodePinned(t *testing.T) {
	want, err := os.ReadFile("testdata/sample_snapshot.bin")
	if err != nil {
		t.Fatal(err)
	}
	if got := Encode(sampleSnapshot()); !bytes.Equal(got, want) {
		t.Errorf("sampleSnapshot encodes to %d bytes that differ from the pinned %d:\n%x", len(got), len(want), got)
	}
	const empty = "414d505701000000000000000000000000000000e141aa75"
	if got := hex.EncodeToString(Encode(&Snapshot{})); got != empty {
		t.Errorf("empty snapshot encodes to %s, want %s", got, empty)
	}
}

// TestEveryFieldReachesVerify perturbs, one at a time, every leaf of
// sampleSnapshot, every slice's length and every pointer's presence: each
// change must change Encode, and Verify must name its path. A state field
// added later is walked here without editing the test.
func TestEveryFieldReachesVerify(t *testing.T) {
	witness, rebuilt := sampleSnapshot(), sampleSnapshot()
	want := Encode(witness)
	checked := 0
	walk("", reflect.ValueOf(rebuilt).Elem(), func(path string, v reflect.Value) {
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		defer v.Set(old)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(math.Float64frombits(math.Float64bits(v.Float()) ^ 1))
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Slice:
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		case reflect.Pointer:
			if v.IsNil() {
				v.Set(reflect.New(v.Type().Elem()))
			} else {
				v.Set(reflect.Zero(v.Type()))
			}
		case reflect.Struct, reflect.Array:
			return
		default:
			t.Fatalf("%s: no perturbation for a %s", path, v.Kind())
		}
		checked++
		if bytes.Equal(Encode(rebuilt), want) {
			t.Errorf("%s: perturbed, but Encode is unchanged", path)
		}
		err := Verify(witness, rebuilt)
		if err == nil || !strings.Contains(err.Error(), path+":") && !strings.Contains(err.Error(), path+" mismatch") {
			t.Errorf("%s: perturbed, but Verify says %v", path, err)
		}
	})
	if !bytes.Equal(Encode(rebuilt), want) {
		t.Fatal("perturbations were not undone")
	}
	if checked < 100 {
		t.Fatalf("perturbed %d values, want every one of sampleSnapshot's", checked)
	}
}

// walk calls visit on v, then on every value inside it in encoding order,
// each with its path as Verify names it.
func walk(path string, v reflect.Value, visit func(string, reflect.Value)) {
	visit(path, v)
	switch v.Kind() {
	case reflect.Slice, reflect.Array:
		for i := range v.Len() {
			walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i), visit)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			walk(path, v.Elem(), visit)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			walk(name, v.Field(i), visit)
		}
	}
}
