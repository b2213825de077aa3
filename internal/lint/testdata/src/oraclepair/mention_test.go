package oraclepair

import "testing"

// TestMentionedOn references MentionedOn without calling
// enginetest.Run — this file is not a suite file, so the reference
// must not satisfy the suite-registration check.
func TestMentionedOn(t *testing.T) {
	if got := MentionedOn(nil, 0); len(got) != 0 {
		t.Fatalf("MentionedOn = %v", got)
	}
}
