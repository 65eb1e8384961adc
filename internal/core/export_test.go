package core

import (
	"context"

	"formext/internal/grammar"
	"formext/internal/token"
)

// AliveResult is a parse result together with every instance alive at the
// end of the parse, in creation order.
type AliveResult struct {
	*Result
	Alive []*grammar.Instance
}

// ParseAlive runs the same parse as Parse, but compacts every alive
// instance along with the maximal trees, so a test can inspect the whole
// surviving interpretation set and not only what the trees reach. The
// trees and Stats are those Parse returns.
func (p *Parser) ParseAlive(toks []*token.Token) (*AliveResult, error) {
	res, alive, err := p.parse(context.Background(), toks, nil, true)
	if res == nil {
		return nil, err
	}
	return &AliveResult{Result: res, Alive: alive}, err
}
