package wire

import (
	"reflect"
	"testing"
)

func TestServerTimingRoundTrip(t *testing.T) {
	in := []Timing{
		{Name: "decode", DurMS: 0.123},
		{Name: "solve", DurMS: 4.5},
		{Name: "encode", DurMS: 0.001},
	}
	out := ParseServerTiming("decode;dur=0.123, solve;dur=4.5, encode;dur=0.001")
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestParseServerTimingLenient(t *testing.T) {
	cases := []struct {
		in   string
		want []Timing
	}{
		{"", nil},
		{"cache;desc=hit", nil}, // no dur: skipped
		{"db;dur=abc, ok;dur=2", []Timing{{"ok", 2}}}, // bad dur: skipped
		{" a ; dur=1 , b;dur=2", []Timing{{"a", 1}, {"b", 2}}},
		{"x;desc=test;dur=3.5", []Timing{{"x", 3.5}}}, // dur after other params
	}
	for _, tc := range cases {
		if got := ParseServerTiming(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseServerTiming(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}
