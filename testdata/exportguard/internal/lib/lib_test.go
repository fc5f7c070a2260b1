package lib

import "testing"

func TestOnlyTested(t *testing.T) {
	Hook()
	var v T
	if OnlyTested()+v.OnlyTestedMethod() != 5 {
		t.Fatal("OnlyTested + OnlyTestedMethod != 5")
	}
}
