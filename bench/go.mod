module topoctl/bench

go 1.24

require topoctl v0.0.0

replace topoctl => ../
