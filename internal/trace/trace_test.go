package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"priste/internal/grid"
)

func TestDiscretize(t *testing.T) {
	g := grid.MustNew(3, 3, 1)
	raw := Raw{
		{X: 0.5, Y: 0.5, T: 0},
		{X: 2.5, Y: 2.5, T: 1},
		{X: -4, Y: 0.5, T: 2}, // clamps to left edge
	}
	got := Discretize(g, raw)
	want := []int{0, 8, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Discretize = %v want %v", got, want)
	}
	if out := Discretize(g, nil); len(out) != 0 {
		t.Fatal("empty input should give empty output")
	}
}

func TestStatesRoundTrip(t *testing.T) {
	trajs := [][]int{{0, 1, 2}, {5}, {3, 3, 3, 3}}
	var buf bytes.Buffer
	if err := WriteStates(&buf, trajs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadStates(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, trajs) {
		t.Fatalf("round trip = %v want %v", got, trajs)
	}
}

func TestReadStatesSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n1,2,3\n\n# tail\n4,5\n"
	got, err := ReadStates(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{1, 2, 3}, {4, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("= %v", got)
	}
}

func TestReadStatesErrors(t *testing.T) {
	if _, err := ReadStates(strings.NewReader("1,x,3\n")); err == nil {
		t.Error("non-numeric accepted")
	}
	if _, err := ReadStates(strings.NewReader("1,-2\n")); err == nil {
		t.Error("negative state accepted")
	}
}
