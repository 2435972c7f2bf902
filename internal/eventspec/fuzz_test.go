package eventspec

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzParseEventSpec feeds Parse arbitrary specs over a 1–1024-state map
// and any horizon. Parse must not panic; an accepted event has a window
// start ≤ end that ends before a positive horizon and a region that is
// exactly the spec's states LO..HI inside the map; and rendering it back
// as LO-HI@START-END parses to the same window and mask.
func FuzzParseEventSpec(f *testing.F) {
	f.Add("0-9@3-7", 100, 20)
	f.Add("+1-2@0-0", 4, 0)
	f.Add("0-99@0-4095", 100, 4096)
	f.Add("5-4@1-2", 10, 5)
	f.Add("0-0@0-9223372036854775807", 1, -1)
	f.Fuzz(func(t *testing.T, spec string, m, horizon int) {
		m = 1 + int(uint(m)%1024)
		ev, err := Parse(spec, m, horizon)
		if err != nil {
			return
		}
		start, end := ev.Window()
		if start > end {
			t.Fatalf("Parse(%q) window [%d,%d] is reversed", spec, start, end)
		}
		if horizon > 0 && end >= horizon {
			t.Fatalf("Parse(%q) window end %d outside horizon %d", spec, end, horizon)
		}
		states, _, _ := strings.Cut(spec, "@")
		lo, hi, err := ParseRange(states)
		if err != nil {
			t.Fatalf("Parse(%q) accepted states %q that ParseRange rejects: %v", spec, states, err)
		}
		if hi >= m {
			t.Fatalf("Parse(%q) accepted state %d outside the %d-state map", spec, hi, m)
		}
		mask := ev.RegionAt(start).Mask()
		if len(mask) != m {
			t.Fatalf("Parse(%q) region over %d states, want %d", spec, len(mask), m)
		}
		for s, v := range mask {
			if in := s >= lo && s <= hi; in != (v != 0) {
				t.Fatalf("Parse(%q) region has state %d = %v, want states %d..%d", spec, s, v, lo, hi)
			}
		}
		canon := fmt.Sprintf("%d-%d@%d-%d", lo, hi, start, end)
		again, err := Parse(canon, m, horizon)
		if err != nil {
			t.Fatalf("Parse(%q) accepted but its rendering %q does not parse: %v", spec, canon, err)
		}
		if s2, e2 := again.Window(); s2 != start || e2 != end {
			t.Fatalf("rendering %q window [%d,%d], want [%d,%d]", canon, s2, e2, start, end)
		}
		mask2 := again.RegionAt(start).Mask()
		for s := range mask {
			if mask[s] != mask2[s] {
				t.Fatalf("rendering %q region differs at state %d", canon, s)
			}
		}
	})
}
