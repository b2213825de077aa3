package testonly

// The sibling non-test file's use of UsedBySibling. A mention in a
// comment or a string, like "OnlyTestsCall" here, is not a use.
var _ error = UsedBySibling()
