package remote

// MaxConcurrentReads exposes the wire read bound to the external tests.
const MaxConcurrentReads = maxConcurrentReads
