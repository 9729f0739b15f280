package cpu

import (
	"reflect"
	"testing"
)

// TestStatsAddCoversAllFields fails whenever a field is added to Stats
// or TierStats but forgotten in Add — the silent-drop bug class where
// a new per-CPU counter never reaches machine.TotalStats or
// TotalTierStats on SMP machines. Every field is seeded with a
// distinct value pair and the sum is checked field by field via
// reflection, so the test needs no updating when either struct grows.
func TestStatsAddCoversAllFields(t *testing.T) {
	var a, b Stats
	seedCounters(t, &a, &b)
	checkSum(t, a.Add(b))
	var ta, tb TierStats
	seedCounters(t, &ta, &tb)
	checkSum(t, ta.Add(tb))
}

// seedCounters sets field i of *a to i+1 and of *b to 1000*(i+1).
func seedCounters(t *testing.T, a, b any) {
	t.Helper()
	va := reflect.ValueOf(a).Elem()
	vb := reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if va.Field(i).Kind() != reflect.Uint64 {
			t.Fatalf("%s.%s is %s; extend this test for non-uint64 fields",
				va.Type().Name(), va.Type().Field(i).Name, va.Field(i).Kind())
		}
		va.Field(i).SetUint(uint64(i + 1))
		vb.Field(i).SetUint(uint64(1000 * (i + 1)))
	}
}

func checkSum(t *testing.T, sum any) {
	t.Helper()
	v := reflect.ValueOf(sum)
	for i := 0; i < v.NumField(); i++ {
		want := uint64(i+1) + uint64(1000*(i+1))
		if got := v.Field(i).Uint(); got != want {
			t.Errorf("%s.Add drops field %s: got %d, want %d",
				v.Type().Name(), v.Type().Field(i).Name, got, want)
		}
	}
}
