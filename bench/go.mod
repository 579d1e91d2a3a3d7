module memagg/bench

go 1.22

require memagg v0.0.0

replace memagg => ../
