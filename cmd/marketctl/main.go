// Command marketctl is the command-line client for marketd.
//
// Usage:
//
//	marketctl [-server http://localhost:8080] <command> [args]
//
// The -server flag accepts an HTTP base URL or a binary wire-protocol
// target ("wire://host:port" or bare "host:port", see marketd
// -wire-addr). Market commands work over either transport; metrics and
// health are HTTP-only.
//
// Commands:
//
//	register-seller <id>
//	register-buyer  <id>                   prints the signing credential when
//	                                       the server requires signed bids
//	upload   <seller> <dataset>
//	withdraw <seller> <dataset>
//	compose  <dataset> <part> [<part>...]
//	bid      <buyer> <dataset> <amount>    sign with -credential and -nonce
//	bid-batch <buyer>:<dataset>:<amount> [...]
//	                                       one request, one result per bid;
//	                                       with -credential each bid is signed
//	                                       using nonce, nonce+1, ...
//	tick
//	datasets
//	stats    <dataset>
//	balance  <seller>
//	wait     <buyer> <dataset>
//	transactions
//	metrics                                requires -token when the server
//	                                       runs with auth
//	health                                 liveness + readiness; exits
//	                                       nonzero when the server is
//	                                       unready (e.g. poisoned journal)
//	journal-info <journal-dir>             offline: segment/checkpoint
//	                                       inventory of a segmented
//	                                       journal directory (marketd
//	                                       -journal-dir), with the
//	                                       recovery replay summary
//	journal-info -dump <journal-dir>       offline: every record of every
//	                                       segment as one JSON event per
//	                                       line (records are binary
//	                                       frames; this is their `cat`)
//	journal-verify <journal-dir>           offline: checksum-scan every
//	                                       segment and checkpoint, sealed
//	                                       and covered ones included;
//	                                       prints the first bad file, seq
//	                                       and offset and exits nonzero
//	journal-migrate <journal-dir|file>     offline, once: rewrites what an
//	                                       older build left in this one's
//	                                       format, a store in place, a file
//	                                       as the store <file>.d
//
// Examples:
//
//	marketctl register-seller acme
//	marketctl upload acme sales-2025
//	marketctl register-buyer bob
//	marketctl bid bob sales-2025 120.5
//	marketctl bid-batch bob:sales-2025:120.5 alice:ads-2025:80
//	marketctl -credential deadbeef... -nonce 3 bid bob sales-2025 120.5
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		server     = flag.String("server", "http://localhost:8080", "marketd base URL")
		credential = flag.String("credential", "", "hex signing secret for signed bids")
		nonce      = flag.Uint64("nonce", 0, "bid nonce (must strictly increase per buyer)")
		token      = flag.String("token", "", "operator bearer token (metrics, stats and traces under auth)")
	)
	flag.Parse()
	c := &client{base: *server, credential: *credential, nonce: *nonce, token: *token}
	if err := run(c, flag.Args(), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "marketctl:", err)
		os.Exit(1)
	}
}
