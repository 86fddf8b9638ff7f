package telemetry

// ExposeBuckets is the finite le-bucket count of every rendered histogram,
// for the external fuzz test's sample accounting.
var ExposeBuckets = len(exposeBounds)
