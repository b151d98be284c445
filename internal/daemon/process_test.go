package daemon

import (
	"strings"
	"testing"

	"repro/internal/power"
)

// TestFailsafeFlags pins the one rule for -failsafe-pl and -failsafe-ph:
// both empty hold the daemon's own band (the zero band, which Govern fills),
// an omitted P_H scales P_L by the own band's PH/PL, and P_H alone is
// refused.
func TestFailsafeFlags(t *testing.T) {
	own := power.Thresholds{PL: 1000, PH: 1200}
	for _, tc := range []struct {
		pl, ph string
		want   power.Thresholds
		err    string
	}{
		{"", "", power.Thresholds{}, ""},
		{"500W", "", power.Thresholds{PL: 500, PH: 600}, ""},
		{"500W", "550W", power.Thresholds{PL: 500, PH: 550}, ""},
		{"", "550W", power.Thresholds{}, "-failsafe-ph needs -failsafe-pl"},
		{"500", "", power.Thresholds{}, `does not end in "W"`},
		{"500W", "55", power.Thresholds{}, `does not end in "W"`},
	} {
		p := &Process{failsafePL: tc.pl, failsafePH: tc.ph}
		got, err := p.Failsafe(own)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("pl %q ph %q: error %v, want one mentioning %q", tc.pl, tc.ph, err, tc.err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("pl %q ph %q: got %+v, %v; want %+v", tc.pl, tc.ph, got, err, tc.want)
		}
	}
}
