// The width and sign every layer gives an expression, pinned byte for
// byte: signed and unsigned names, casts, unsized decimals and signed
// based literals, `>>>`, signed `/` and `%`, comparisons and a ternary
// that mix signs, and a signed right-hand side widened into each kind of
// target. CI diffs `hwdbg sim tests/fixtures/signed_typing.v --cycles 16`
// against signed_typing.golden.
module widen(input [15:0] a, output [15:0] y);
  assign y = a;
endmodule

module signed_typing(input clk);
  reg [7:0] u;
  reg signed [7:0] s;
  reg signed [3:0] n;
  // A signed value sign-extends into a wider target; an unsigned one
  // zero-extends.
  localparam [15:0] P = $signed(8'hf9);
  localparam [15:0] Q = 8'hf9;
  wire [15:0] wa;
  wire [15:0] wp;
  reg [15:0] nb;
  reg [15:0] bl;
  assign wa = s;
  widen port(.a($signed(u)), .y(wp));
  always @(*) bl = $signed(4'hc) + n;
  always @(posedge clk) begin
    u <= u + 8'd29;
    s <= s - 8'sd23;
    n <= n + 4'sd3;
    nb <= n;
    $display("names u=%h/%d/%0d s=%h/%d/%0d su=%0d us=%0d dec=%0d/%h",
             u, u, u, s, s, s, $signed(u), $unsigned(s), -5, -5);
    $display("lits %0d %0d %d %h %0d %0d", 8'sd3, 8'sh80, 8'sd3 - 8'sd5, -8'sd1, 8'hfe, 'sh7f);
    $display("shifts %h %h %h %h %0d", s >>> 2, u >>> 2, $signed(u) >>> 3, s >> 2, 8'sh90 >>> 4);
    $display("divmod %0d %0d %0d %0d %0d %0d", s / 8'sd3, s % 8'sd3, s / -8'sd3, s % -8'sd3,
             u / 8'd3, $signed(u) % 8'sd7);
    $display("cmp %b %b %b %b %b %b", s < 8'sd0, s < 8'd0, s < 0, u > s, $signed(u) > s,
             -1 < 8'd1);
    $display("mux %0d %0d %h", u[0] ? s : 8'sd1, u[0] ? s : u, u[1] ? s : 4'd1);
    $display("widen wa=%h wp=%h nb=%h bl=%h P=%h Q=%h", wa, wp, nb, bl, P, Q);
  end
endmodule
