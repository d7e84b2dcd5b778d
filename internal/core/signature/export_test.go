package signature

// The signature's tests are an external package; this is their name
// for the bottom check.
var IsBottom = (*Signature).isBottom
