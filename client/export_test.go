package client

// ParseDone exposes parseDone to the external tests, which drive a real
// daemon.
var ParseDone = parseDone
