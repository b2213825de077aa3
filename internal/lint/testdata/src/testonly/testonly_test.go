package testonly

import "testing"

func TestOnlyTestsCall(t *testing.T) {
	if OnlyTestsCall(2) != 4 || Limit != 8 || Oracle() != 4 || (&Gauge{v: 1}).Reading() != 1 {
		t.Fatal("fixture arithmetic")
	}
}
